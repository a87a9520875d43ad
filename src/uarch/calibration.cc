#include "uarch/calibration.hh"

#include <chrono>

namespace reqisc::uarch
{

CalibrationPlan
planCalibration(const circuit::Circuit &c, const Coupling &cpl,
                double cluster_tol, PulseMemo *memo,
                synth::BlockPool *pool)
{
    CalibrationPlan plan;
    GateScheme scheme(cpl, pool);
    for (const auto &g : c) {
        if (!g.is2Q())
            continue;
        const weyl::WeylCoord coord = g.weylCoord();
        bool found = false;
        for (auto &e : plan.entries) {
            if (e.coord.approxEqual(coord, cluster_tol)) {
                ++e.uses;
                found = true;
                break;
            }
        }
        if (found)
            continue;
        CalibrationEntry e;
        e.coord = coord;
        e.uses = 1;
        if (memo && memo->lookup(coord, e.pulse)) {
            plan.entries.push_back(std::move(e));
            continue;
        }
        const auto t0 = std::chrono::steady_clock::now();
        e.pulse = scheme.solveCoord(coord);
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (memo)
            memo->store(coord, e.pulse, secs);
        if (!e.pulse.converged)
            ++plan.unsolved;
        plan.entries.push_back(std::move(e));
    }
    return plan;
}

} // namespace reqisc::uarch
