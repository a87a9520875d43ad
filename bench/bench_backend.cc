/**
 * @file
 * Backend reconfiguration harness (the headline "reconfigurable"
 * result at chip granularity): for each example chip under
 * examples/chips/ — or any chip files passed on the command line —
 * run the per-edge gate-set selection loop, show the chosen
 * instruction table, then compile + route the small suite through a
 * backend-aware CompileService and compare the estimated fidelity of
 * the reconfigured per-edge gate set against the best *uniform*
 * (fixed-ISA) gate set for that chip.
 *
 * Expected shape: on homogeneous chips the two coincide (the loop
 * degenerates); on heterogeneous chips the per-edge table wins on
 * every circuit and strictly on those whose routing touches a
 * reconfigured edge. `--json` emits the summary the CI perf-guard
 * diffs against bench/baselines.json (key metric: mean reconfigured
 * - uniform fidelity delta over the heterogeneous chips).
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "backend/json.hh"
#include "backend/reconfigure.hh"
#include "common.hh"
#include "obs/json_escape.hh"
#include "service/service.hh"
#include "suite/suite.hh"

#ifndef REQISC_SOURCE_DIR
#define REQISC_SOURCE_DIR "."
#endif

using namespace reqisc;
using namespace reqisc::benchtool;

namespace
{

struct CircuitRow
{
    std::string name;
    double fReconf = 0.0, fUniform = 0.0;
};

struct ChipReport
{
    std::string path;
    backend::Backend chip;
    backend::ReconfigureResult reconfig;
    bool heterogeneous = false;
    std::vector<CircuitRow> circuits;
    double meanDelta = 0.0;
};

std::vector<std::string>
chipPaths(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--seed") {
            ++i;  // its value is not a chip path
            continue;
        }
        if (argv[i][0] != '-')
            paths.push_back(argv[i]);
    }
    if (paths.empty()) {
        const std::string dir =
            std::string(REQISC_SOURCE_DIR) + "/examples/chips/";
        for (const char *name :
             {"chain8_xy.json", "xx_chain5.json",
              "hetero_heavy_hex.json", "noisy_corner_grid9.json"})
            paths.push_back(dir + name);
    }
    return paths;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const auto suite = suite::smallSuite();

    std::vector<ChipReport> reports;
    for (const std::string &path : chipPaths(argc, argv)) {
        ChipReport rep;
        rep.path = path;
        try {
            rep.chip = backend::Backend::fromJsonFile(path);
        } catch (const backend::JsonError &e) {
            std::fprintf(stderr, "bench_backend: %s\n", e.what());
            return 2;
        }
        rep.heterogeneous = !rep.chip.isHomogeneous();

        service::ServiceOptions sopts;
        sopts.backend =
            std::make_shared<const backend::Backend>(rep.chip);
        service::CompileService svc(sopts);
        rep.reconfig = *svc.reconfiguration();

        std::vector<service::CompileRequest> batch;
        for (const auto &bm : suite) {
            if (bm.circuit.numQubits() > rep.chip.numQubits())
                continue;
            service::CompileRequest req;
            req.name = bm.name;
            req.input = bm.circuit;
            req.pipelineSpec = "eff";
            req.calibrate = false;
            batch.push_back(std::move(req));
        }
        svc.submitBatch(std::move(batch));
        double deltaAcc = 0.0;
        for (service::JobResult &r : svc.waitAll()) {
            if (!r.ok) {
                std::fprintf(stderr, "bench_backend: %s: %s\n",
                             r.name.c_str(), r.errorInfo.message.c_str());
                return 1;
            }
            CircuitRow row;
            row.name = r.name;
            row.fReconf = r.metrics.backend.fidelityReconfigured;
            row.fUniform = r.metrics.backend.fidelityUniform;
            deltaAcc += row.fReconf - row.fUniform;
            rep.circuits.push_back(std::move(row));
        }
        rep.meanDelta =
            rep.circuits.empty()
                ? 0.0
                : deltaAcc / static_cast<double>(
                                 rep.circuits.size());
        reports.push_back(std::move(rep));
    }

    // Perf-guard metric: mean fidelity delta over the heterogeneous
    // chips (the homogeneous ones are identically zero).
    double heteroDelta = 0.0;
    int heteroChips = 0;
    for (const ChipReport &rep : reports) {
        if (!rep.heterogeneous)
            continue;
        heteroDelta += rep.meanDelta;
        ++heteroChips;
    }
    if (heteroChips)
        heteroDelta /= heteroChips;

    if (opt.json) {
        std::printf("{\n  \"chips\": [\n");
        for (size_t ci = 0; ci < reports.size(); ++ci) {
            const ChipReport &rep = reports[ci];
            int reconfEdges = 0;
            for (const auto &e : rep.reconfig.table)
                if (e.op != rep.reconfig.uniformOp)
                    ++reconfEdges;
            std::printf(
                "    {\"name\": \"%s\", \"qubits\": %d, \"edges\": "
                "%zu, \"heterogeneous\": %s, \"uniformGate\": "
                "\"%s\", \"reconfiguredEdges\": %d, \"meanDelta\": "
                "%.8f, \"circuits\": [\n",
                obs::jsonEscape(rep.chip.name()).c_str(),
                rep.chip.numQubits(), rep.chip.edges().size(),
                rep.heterogeneous ? "true" : "false",
                rep.reconfig.uniformName.c_str(), reconfEdges,
                rep.meanDelta);
            for (size_t i = 0; i < rep.circuits.size(); ++i) {
                const CircuitRow &row = rep.circuits[i];
                std::printf("      {\"name\": \"%s\", \"fReconf\": "
                            "%.8f, \"fUniform\": %.8f}%s\n",
                            obs::jsonEscape(row.name).c_str(),
                            row.fReconf, row.fUniform,
                            i + 1 < rep.circuits.size() ? ","
                                                        : "");
            }
            std::printf("    ]}%s\n",
                        ci + 1 < reports.size() ? "," : "");
        }
        std::printf("  ],\n  \"fidelityDelta\": %.8f\n}\n",
                    heteroDelta);
        return 0;
    }

    for (const ChipReport &rep : reports) {
        // Built with += : GCC 12's -Werror=restrict false-fires on
        // long operator+ chains of std::string temporaries.
        std::string edgesTitle = "Chip ";
        edgesTitle += rep.chip.name();
        edgesTitle += " (";
        edgesTitle += std::to_string(rep.chip.numQubits());
        edgesTitle += " qubits): per-edge native gate set vs "
                      "uniform '";
        edgesTitle += rep.reconfig.uniformName;
        edgesTitle += "'";
        Table edges(edgesTitle,
                    {"Edge", "Coupling (a,b,c)", "Gate", "tau",
                     "appF", "E[apps]", "score", "unif score"});
        for (size_t i = 0; i < rep.reconfig.table.size(); ++i) {
            const backend::EdgeInstruction &e =
                rep.reconfig.table[i];
            const backend::EdgeInstruction &u =
                rep.reconfig.uniformTable[i];
            const auto &cpl =
                rep.chip.edge(e.a, e.b).coupling;
            std::string edgeCell = "q";
            edgeCell += std::to_string(e.a);
            edgeCell += "-q";
            edgeCell += std::to_string(e.b);
            std::string cplCell = "(";
            cplCell += fmt(cpl.a, 2);
            cplCell += ",";
            cplCell += fmt(cpl.b, 2);
            cplCell += ",";
            cplCell += fmt(cpl.c, 2);
            cplCell += ")";
            edges.addRow(
                {edgeCell, cplCell, e.name, fmt(e.duration),
                 fmt(e.appFidelity, 5), fmt(e.expectedApps, 2),
                 fmt(e.score, 6), fmt(u.score, 6)});
        }
        edges.print(opt.csv);

        std::string fidTitle = "Estimated circuit fidelity on ";
        fidTitle += rep.chip.name();
        fidTitle += ": reconfigured per-edge vs uniform gate set";
        Table fid(fidTitle,
                  {"Benchmark", "F reconf", "F uniform", "delta"});
        for (const CircuitRow &row : rep.circuits)
            fid.addRow({row.name, fmt(row.fReconf, 6),
                        fmt(row.fUniform, 6),
                        fmt(row.fReconf - row.fUniform, 6)});
        fid.addRow({"mean delta", "-", "-", fmt(rep.meanDelta, 6)});
        fid.print(opt.csv);
        std::printf("\n");
    }
    std::printf("mean reconfigured-vs-uniform fidelity delta over "
                "heterogeneous chips: %.6f\n",
                heteroDelta);
    return 0;
}
