/**
 * @file
 * Figure 12: topology-aware benchmarking on a 1D chain and a 2D grid.
 * Compares the CNOT flow (TKet-like logical + SABRE + physical-level
 * optimization) with the SU(4) flow (ReQISC-Full logical + SABRE or
 * mirroring-SABRE), reporting #2Q after mapping and the routing
 * overhead multiple relative to the logical circuit.
 */

#include <cmath>

#include "common.hh"
#include "compiler/baselines.hh"
#include "compiler/passes.hh"
#include "compiler/pipeline.hh"
#include "route/sabre.hh"
#include "suite/suite.hh"
#include "synth/synthesis.hh"
#include "weyl/weyl.hh"

using namespace reqisc;
using namespace reqisc::benchtool;
using circuit::Circuit;
using circuit::Gate;
using circuit::Op;

namespace
{

/** SU(4) flow post-routing: inserted SWAPs are single Can gates. */
Circuit
swapsToCan(const Circuit &c)
{
    Circuit out(c.numQubits());
    for (const Gate &g : c) {
        if (g.op == Op::SWAP)
            out.add(Gate::can(g.qubits[0], g.qubits[1],
                              weyl::WeylCoord::swap()));
        else
            out.add(g);
    }
    return out;
}

/** CNOT flow post-routing: SWAP = 3 CX, then a physical peephole. */
Circuit
physOpt(const Circuit &c)
{
    Circuit low(c.numQubits());
    for (const Gate &g : c) {
        if (g.op == Op::SWAP) {
            low.add(Gate::cx(g.qubits[0], g.qubits[1]));
            low.add(Gate::cx(g.qubits[1], g.qubits[0]));
            low.add(Gate::cx(g.qubits[0], g.qubits[1]));
        } else {
            low.add(g);
        }
    }
    // Same-pair consolidation never violates the topology.
    Circuit fused = compiler::fuse2QBlocks(
        compiler::fuse1Q(compiler::cancelAdjacentCx(low)));
    Circuit out(c.numQubits());
    for (const Gate &g : fused) {
        if (g.op == Op::U4) {
            for (Gate &e : synth::su4ToCnots(g.qubits[0],
                                             g.qubits[1],
                                             g.matrix()))
                out.add(std::move(e));
        } else {
            out.add(g);
        }
    }
    return compiler::cancelAdjacentCx(out);
}

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += std::log(std::max(1e-9, x));
    return std::exp(s / v.size());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    auto suite = suite::mediumSuite();

    for (const char *device : {"chain", "grid"}) {
        Table table(std::string("Figure 12 (") + device +
                        "): #2Q after qubit mapping",
                    {"Benchmark", "CX logic", "CX+SABRE+opt",
                     "SU4 logic", "SU4+SABRE", "SU4+mirror-SABRE",
                     "CX ovh", "SU4 ovh"});
        std::vector<double> cx_ovh, su4_ovh;
        for (const auto &bm : suite) {
            // CNOT flow.
            Circuit cx_logic = compiler::tketLike(bm.circuit);
            const int n = cx_logic.numQubits();
            // One hardware description for benches and compiler
            // alike: the shared bench device (bench/common).
            const route::Topology topo =
                deviceBackend(device, n).topology();
            route::RouteOptions ropts;
            route::RouteResult cx_routed =
                route::sabreRoute(cx_logic, topo, ropts);
            Circuit cx_phys = physOpt(cx_routed.circuit);

            // SU(4) flow.
            compiler::CompileResult full =
                compiler::reqiscFull(bm.circuit);
            route::RouteResult su4_plain =
                route::sabreRoute(full.circuit, topo, ropts);
            route::RouteOptions mopts;
            mopts.mirroring = true;
            route::RouteResult su4_mirror =
                route::sabreRoute(full.circuit, topo, mopts);

            const int cxl = cx_logic.count2Q();
            const int cxp = cx_phys.count2Q();
            const int s4l = full.circuit.count2Q();
            const int s4p = swapsToCan(su4_plain.circuit).count2Q();
            const int s4m = swapsToCan(su4_mirror.circuit).count2Q();
            cx_ovh.push_back(double(cxp) / cxl);
            su4_ovh.push_back(double(s4m) / s4l);
            table.addRow({bm.name, std::to_string(cxl),
                          std::to_string(cxp), std::to_string(s4l),
                          std::to_string(s4p), std::to_string(s4m),
                          fmt(double(cxp) / cxl, 2) + "x",
                          fmt(double(s4m) / s4l, 2) + "x"});
        }
        table.addRow({"geomean", "-", "-", "-", "-", "-",
                      fmt(geomean(cx_ovh), 2) + "x",
                      fmt(geomean(su4_ovh), 2) + "x"});
        table.print(opt.csv);
    }
    return 0;
}
