/**
 * @file
 * Variational-workload calibration demo (Section 5.3.1): compiling a
 * QAOA ansatz in the default mode produces parameter-dependent SU(4)
 * gates (recalibration per parameter update); the variational mode
 * re-expresses everything over one fixed 2Q gate (SQiSW) plus
 * parameterized 1Q layers that the PMW protocol reconfigures for
 * free — constant calibration cost at a small #2Q premium.
 *
 * Build & run:  ./build/examples/example_variational_calibration
 */

#include <cstdio>

#include "compiler/pipeline.hh"
#include "suite/suite.hh"

using namespace reqisc;

int
main()
{
    for (int step = 0; step < 3; ++step) {
        // Each optimizer step changes the variational angles.
        suite::Benchmark bm = suite::makeQaoa(8, 2, 500 + step);

        compiler::CompileResult plain =
            compiler::reqiscEff(bm.circuit);
        compiler::CompileOptions vopts;
        vopts.variationalMode = true;
        compiler::CompileResult var =
            compiler::reqiscEff(bm.circuit, vopts);

        std::printf("step %d (%s):\n", step, bm.name.c_str());
        std::printf("  default mode:     #2Q=%3d distinct SU(4)=%d "
                    "(recalibrate on every parameter update)\n",
                    plain.circuit.count2Q(),
                    plain.circuit.countDistinctSU4());
        std::printf("  variational mode: #2Q=%3d distinct SU(4)=%d "
                    "(fixed SQiSW; 1Q phases via PMW, no "
                    "recalibration)\n",
                    var.circuit.count2Q(),
                    var.circuit.countDistinctSU4());
    }
    return 0;
}
