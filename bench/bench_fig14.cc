/**
 * @file
 * Figure 14: ablation study — ReQISC-Full against the SU(4) variants
 * of the baselines (Qiskit-SU4 / TKet-SU4 / BQSKit-SU4) and against
 * ReQISC-NC (no DAG compacting), reporting #2Q reduction rates and
 * the distinct-SU(4) explosion of BQSKit-SU4.
 */

#include <algorithm>
#include <map>

#include "common.hh"
#include "compiler/baselines.hh"
#include "compiler/pass_manager.hh"
#include "compiler/pipeline.hh"
#include "suite/suite.hh"

using namespace reqisc;
using namespace reqisc::benchtool;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    auto suite = suite::standardSuite(opt.full);

    Table table("Figure 14: ablation, #2Q reduction vs CNOT-lowered "
                "input (and distinct SU(4) classes)",
                {"Benchmark", "Qiskit-SU4", "TKet-SU4", "BQSKit-SU4",
                 "ReQISC-NC", "ReQISC-Full", "BQSKit dist.",
                 "Full dist."});
    // ReQISC-NC is a pass-list edit: the Full list with hier-synth's
    // DAG-compacting step skipped.
    std::vector<std::string> nc = compiler::compilePassList(
        compiler::PipelineSpec::Kind::Full, {});
    std::replace(nc.begin(), nc.end(), std::string("hier-synth"),
                 std::string("hier-synth:nc"));
    double sums[5] = {0, 0, 0, 0, 0};
    int n = 0;
    for (const auto &bm : suite) {
        circuit::Circuit low = compiler::lowerToCnot3(bm.circuit);
        const int base = low.count2Q();
        circuit::Circuit v[5];
        v[0] = compiler::qiskitSU4(bm.circuit);
        v[1] = compiler::tketSU4(bm.circuit);
        v[2] = compiler::bqskitSU4(bm.circuit);
        v[3] = compiler::runPasses(bm.circuit, nc).circuit;
        v[4] = compiler::reqiscFull(bm.circuit).circuit;
        std::vector<std::string> row = {bm.name};
        for (int k = 0; k < 5; ++k) {
            const double red = 1.0 - double(v[k].count2Q()) / base;
            sums[k] += red;
            row.push_back(pct(red));
        }
        row.push_back(std::to_string(v[2].countDistinctSU4()));
        row.push_back(std::to_string(v[4].countDistinctSU4()));
        ++n;
        table.addRow(row);
    }
    std::vector<std::string> avg = {"Average"};
    for (int k = 0; k < 5; ++k)
        avg.push_back(pct(sums[k] / n));
    avg.push_back("-");
    avg.push_back("-");
    table.addRow(avg);
    table.print(opt.csv);
    return 0;
}
