#include "compiler/pipeline.hh"

#include <algorithm>
#include <stdexcept>

#include "compiler/pass_manager.hh"
#include "compiler/passes.hh"
#include "synth/templates.hh"

namespace reqisc::compiler
{

circuit::Circuit
templateSynthesis(const circuit::Circuit &c)
{
    auto &lib = synth::TemplateLibrary::instance();
    Circuit out(c.numQubits());
    // Track the last emitted 2Q pair for selective assembly.
    std::pair<int, int> last_pair{-1, -1};
    auto note = [&](const Gate &g) {
        if (g.is2Q())
            last_pair = std::minmax(g.qubits[0], g.qubits[1]);
    };
    for (const Gate &g : c) {
        switch (g.op) {
          case Op::CCX:
          case Op::CCZ:
          case Op::CSWAP:
          case Op::PERES: {
            // Map the preferred concrete pair into role indices.
            std::pair<int, int> pref{-1, -1};
            if (last_pair.first >= 0) {
                int r1 = -1, r2 = -1;
                for (int i = 0; i < 3; ++i) {
                    if (g.qubits[i] == last_pair.first)
                        r1 = i;
                    if (g.qubits[i] == last_pair.second)
                        r2 = i;
                }
                if (r1 >= 0 && r2 >= 0)
                    pref = std::minmax(r1, r2);
            }
            const synth::TemplateEntry &e = lib.pick(g.op, pref);
            for (const Gate &tg : e.gates) {
                Gate mapped = tg;
                for (int &q : mapped.qubits)
                    q = g.qubits[q];
                note(mapped);
                out.add(std::move(mapped));
            }
            break;
          }
          default:
            note(g);
            out.add(g);
        }
    }
    return out;
}

CompileResult
runPasses(const circuit::Circuit &input, std::vector<std::string> passes,
          const CompileOptions &opts)
{
    PassManager pm;
    std::string error;
    if (!buildPipeline({PipelineSpec::Kind::Custom, std::move(passes)},
                       opts, pm, error))
        throw std::invalid_argument(error);
    CompilationUnit unit = CompilationUnit::forInput(input, opts);
    pm.run(unit);
    CompileResult res;
    res.circuit = std::move(unit.circuit);
    res.finalPermutation = std::move(unit.finalPermutation);
    return res;
}

CompileResult
reqiscEff(const circuit::Circuit &input, const CompileOptions &opts)
{
    return runPasses(input,
                     compilePassList(PipelineSpec::Kind::Eff, opts),
                     opts);
}

CompileResult
reqiscFull(const circuit::Circuit &input, const CompileOptions &opts)
{
    return runPasses(input,
                     compilePassList(PipelineSpec::Kind::Full, opts),
                     opts);
}

} // namespace reqisc::compiler
