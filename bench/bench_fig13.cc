/**
 * @file
 * Figure 13: calibration efficiency — distinct SU(4) classes in the
 * circuits produced by ReQISC-Eff vs ReQISC-Full, the paper's
 * calibration-overhead proxy, plus the #2Q reduction trade-off.
 */

#include "common.hh"
#include "compiler/baselines.hh"
#include "compiler/pipeline.hh"
#include "suite/suite.hh"

using namespace reqisc;
using namespace reqisc::benchtool;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    auto suite = suite::standardSuite(opt.full);

    Table table("Figure 13: distinct SU(4) count (calibration "
                "overhead) vs #2Q, Eff vs Full",
                {"Benchmark", "#2Q in", "Eff #2Q", "Eff distinct",
                 "Full #2Q", "Full distinct"});
    int eff_max = 0, full_max = 0, full_le20 = 0, count = 0;
    for (const auto &bm : suite) {
        circuit::Circuit low = compiler::lowerToCnot3(bm.circuit);
        if (low.count2Q() > 5000)
            continue;
        // Variational programs use the fixed-basis (PMW) mode, the
        // paper's Section 5.3.1 trade-off.
        compiler::CompileOptions copts;
        copts.variationalMode = bm.isTypeII;
        auto eff = compiler::reqiscEff(bm.circuit, copts);
        auto full = compiler::reqiscFull(bm.circuit, copts);
        const int de = eff.circuit.countDistinctSU4();
        const int df = full.circuit.countDistinctSU4();
        eff_max = std::max(eff_max, de);
        full_max = std::max(full_max, df);
        ++count;
        if (df < 20)
            ++full_le20;
        table.addRow({bm.name, std::to_string(low.count2Q()),
                      std::to_string(eff.circuit.count2Q()),
                      std::to_string(de),
                      std::to_string(full.circuit.count2Q()),
                      std::to_string(df)});
    }
    table.print(opt.csv);

    // Fig 13(b): histogram of distinct-SU(4) counts across programs.
    const int edges[] = {0, 5, 10, 20, 50, 100, 1 << 20};
    const char *labels[] = {"0-4", "5-9", "10-19", "20-49", "50-99",
                            ">=100"};
    int hist_eff[6] = {0}, hist_full[6] = {0};
    for (const auto &bm : suite) {
        circuit::Circuit low = compiler::lowerToCnot3(bm.circuit);
        if (low.count2Q() > 5000)
            continue;
        compiler::CompileOptions copts;
        copts.variationalMode = bm.isTypeII;
        const int de = compiler::reqiscEff(bm.circuit, copts)
                           .circuit.countDistinctSU4();
        const int df = compiler::reqiscFull(bm.circuit, copts)
                           .circuit.countDistinctSU4();
        for (int b = 0; b < 6; ++b) {
            if (de >= edges[b] && de < edges[b + 1])
                ++hist_eff[b];
            if (df >= edges[b] && df < edges[b + 1])
                ++hist_full[b];
        }
    }
    Table hist("Figure 13(b): distinct SU(4) count distribution",
               {"Bucket", "Eff programs", "Full programs"});
    for (int b = 0; b < 6; ++b)
        hist.addRow({labels[b], std::to_string(hist_eff[b]),
                     std::to_string(hist_full[b])});
    hist.print(opt.csv);

    std::printf("\nEff max distinct SU(4): %d (paper: < 10); "
                "Full max: %d (paper: < 200); %d/%d programs "
                "below 20 distinct gates (paper: > 3/4).\n",
                eff_max, full_max, full_le20, count);
    return 0;
}
