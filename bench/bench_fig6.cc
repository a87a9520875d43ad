/**
 * @file
 * Figure 6: hardware implementation of the genAshN microarchitecture.
 * (a) gate-time landscape for representative gates under XY coupling;
 * (b/c) subscheme selection under XY and XX couplings;
 * (d) local drive amplitudes for the gate families (scaled members).
 */

#include <cmath>
#include <numbers>

#include "common.hh"
#include "uarch/genashn.hh"
#include "weyl/weyl.hh"

using namespace reqisc;
using namespace reqisc::benchtool;
using reqisc::weyl::WeylCoord;

namespace
{

constexpr double kPi = std::numbers::pi;

struct NamedGate
{
    const char *name;
    WeylCoord coord;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);

    const NamedGate gates[] = {
        {"SQiSW", WeylCoord::sqisw()},
        {"iSWAP", WeylCoord::iswap()},
        {"QTSW", {kPi / 16, kPi / 16, kPi / 16}},
        {"SQSW", {kPi / 8, kPi / 8, kPi / 8}},
        {"SWAP", WeylCoord::swap()},
        {"CV", WeylCoord::cv()},
        {"CNOT", WeylCoord::cnot()},
        {"B", WeylCoord::bgate()},
        {"ECP", {kPi / 4, kPi / 8, kPi / 8}},
        {"QFT2", {kPi / 4, kPi / 4, kPi / 8}},
    };

    // (a) durations + subschemes under XY and XX.
    Table ta("Figure 6(a-c): gate durations (units pi/g) and "
             "subschemes",
             {"Gate", "Coord (x,y,z)/pi", "XY tau", "XY scheme",
              "XX tau", "XX scheme"});
    const uarch::Coupling xy = uarch::Coupling::xy(1.0);
    const uarch::Coupling xx = uarch::Coupling::xx(1.0);
    for (const auto &g : gates) {
        uarch::DurationInfo ixy = uarch::durationInfo(xy, g.coord);
        uarch::DurationInfo ixx = uarch::durationInfo(xx, g.coord);
        char coord[64];
        std::snprintf(coord, sizeof(coord), "(%.3f,%.3f,%.3f)",
                      g.coord.x / kPi, g.coord.y / kPi,
                      g.coord.z / kPi);
        ta.addRow({g.name, coord, fmt(ixy.tau / kPi, 4),
                   uarch::subSchemeName(ixy.scheme),
                   fmt(ixx.tau / kPi, 4),
                   uarch::subSchemeName(ixx.scheme)});
    }
    ta.print(opt.csv);

    // (d) drive amplitudes for scaled gate families under XY.
    Table td("Figure 6(d): drive amplitudes |A1|, |A2|, |delta| "
             "(units g) for gate families, XY coupling",
             {"Family", "s", "tau (pi/g)", "|A1|", "|A2|", "|delta|",
              "scheme"});
    struct Family
    {
        const char *name;
        WeylCoord full;
    };
    const Family families[] = {
        {"iSWAP^s", WeylCoord::iswap()},
        {"CNOT^s", WeylCoord::cnot()},
        {"B^s", WeylCoord::bgate()},
        {"SWAP^s", WeylCoord::swap()},
    };
    uarch::GateScheme scheme(xy);
    const double scales[] = {0.25, 0.5, 0.75, 1.0};
    for (const auto &f : families) {
        for (double s : scales) {
            WeylCoord c{f.full.x * s, f.full.y * s, f.full.z * s};
            if (uarch::needsMirror(
                    c, opt.full ? 0.02 : uarch::kMirrorThreshold))
                continue;   // mirrored at compile time instead
            uarch::PulseSolution sol = scheme.solveCoord(c);
            if (!sol.converged) {
                td.addRow({f.name, fmt(s, 2), "-", "-", "-", "-",
                           "unsolved"});
                continue;
            }
            td.addRow({f.name, fmt(s, 2), fmt(sol.tau / kPi, 4),
                       fmt(std::abs(sol.ampA1()), 3),
                       fmt(std::abs(sol.ampA2()), 3),
                       fmt(std::abs(sol.delta), 3),
                       uarch::subSchemeName(sol.scheme)});
        }
    }
    td.print(opt.csv);
    return 0;
}
