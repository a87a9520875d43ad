/**
 * @file
 * Golden artifacts: byte-level digests of everything a compile job
 * produces, pinned against tests/golden_artifacts.txt.
 *
 * Cases: every examples/qasm/ circuit and every suite::smallSuite()
 * circuit, under the eff and full pipelines, with no backend, on the
 * homogeneous examples/chips/chain8_xy.json and on the heterogeneous
 * examples/chips/hetero_heavy_hex.json. Every job runs with ASAP
 * scheduling and calibration on, on a one-thread service per
 * (chip, pipeline) group fed in a fixed order, so the per-job
 * pulse-cache hit/miss split is deterministic too. The cases compile
 * once serially and once with four block workers, which fan
 * hier-synth's blocks and calibrate's EA multistarts out across a
 * pool; both must match the same file.
 *
 * Each case line pins the compiled QASM, finalPermutation, the routed
 * QASM and finalLayout, the RQISA assembly, the circuit metrics,
 * makespan, both backend fidelities, unsolvedClasses and the per-job
 * pulse-cache hits/misses. Text artifacts are FNV-1a digests, numbers
 * are exact (%.17g). A refactor that claims to keep behaviour must
 * leave the file untouched; on a mismatch the failure names the case,
 * its first differing field and the case's new line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.hh"
#include "circuit/qasm.hh"
#include "isa/assembly.hh"
#include "service/persist.hh"
#include "service/service.hh"
#include "suite/suite.hh"
#include "test_util.hh"

using namespace reqisc;

namespace
{

const char *const kDigestFile = "/tests/golden_artifacts.txt";

std::string
digest(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64,
                  service::persist::fnv1aBytes(text.data(), text.size()));
    return buf;
}

std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
list(const std::vector<int> &v)
{
    if (v.empty())
        return "-";
    std::ostringstream os;
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    return os.str();
}

/**
 * The RQISA assembly digest. Routed programs may keep opaque u4
 * blocks, which have no assembly form; those pin the timed
 * instruction stream instead.
 */
std::string
programDigest(const isa::Program &p)
{
    try {
        return digest(isa::toAssembly(p));
    } catch (const std::invalid_argument &) {
        std::ostringstream times;
        circuit::Circuit gates(p.numQubits());
        for (const isa::Instruction &i : p.instructions()) {
            times << exact(i.start) << ' ' << exact(i.duration) << '\n';
            if (i.kind == isa::Instruction::Kind::Gate)
                gates.add(i.gate);
        }
        return "timed:" + digest(times.str() + circuit::toQasm(gates));
    }
}

/** One case line: "<case> field=value field=value ...". */
std::string
caseLine(const std::string &name, const service::JobResult &r)
{
    if (!r.ok)
        return name + " error=" + digest(r.errorInfo.message);
    const compiler::Metrics &m = r.metrics;
    const std::vector<std::pair<const char *, std::string>> fields = {
        {"circuit", digest(circuit::toQasm(r.compiled.circuit))},
        {"perm", list(r.compiled.finalPermutation)},
        {"routed", r.finalLayout.empty()
                       ? "-"
                       : digest(circuit::toQasm(r.routed))},
        {"layout", list(r.finalLayout)},
        {"isa", programDigest(r.program)},
        {"count2Q", std::to_string(m.count2Q)},
        {"depth2Q", std::to_string(m.depth2Q)},
        {"duration", exact(m.duration)},
        {"distinctSU4", std::to_string(m.distinctSU4)},
        {"makespan", exact(m.schedule.makespan)},
        {"fidelityReconfigured", exact(m.backend.fidelityReconfigured)},
        {"fidelityUniform", exact(m.backend.fidelityUniform)},
        {"unsolvedClasses", std::to_string(m.unsolvedClasses)},
        {"pulseHits", std::to_string(m.pulseCache.hits)},
        {"pulseMisses", std::to_string(m.pulseCache.misses)},
    };
    std::string line = name;
    for (const auto &[key, value] : fields)
        line += std::string(" ") + key + "=" + value;
    return line;
}

/** The whitespace-separated fields of a case line, name first. */
std::vector<std::string>
split(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string tok; in >> tok;)
        out.push_back(tok);
    return out;
}

/** Every case, in the fixed order the digest file lists them. */
std::vector<std::string>
compileAllCases(int block_workers)
{
    std::vector<std::pair<std::string, circuit::Circuit>> inputs;
    for (const char *name : {"adder5", "ghz8", "ising6", "qft4"})
        inputs.emplace_back(
            name, circuit::fromQasm(test::readFile(
                      std::string(REQISC_SOURCE_DIR "/examples/qasm/") +
                      name + ".qasm")));
    for (const suite::Benchmark &bm : suite::smallSuite())
        inputs.emplace_back(bm.name, bm.circuit);

    std::vector<std::string> lines;
    for (const char *chip : {"none", "chain8_xy", "hetero_heavy_hex"}) {
        std::shared_ptr<const backend::Backend> backend;
        if (std::string(chip) != "none")
            backend = std::make_shared<const backend::Backend>(
                backend::Backend::fromJsonFile(
                    std::string(REQISC_SOURCE_DIR) +
                    "/examples/chips/" + chip + ".json"));
        for (const char *pipeline : {"eff", "full"}) {
            service::ServiceOptions sopts;
            sopts.threads = 1;
            sopts.blockWorkers = block_workers;
            sopts.backend = backend;
            service::CompileService svc(sopts);
            for (const auto &[name, circ] : inputs) {
                service::CompileRequest req;
                req.name = name;
                req.input = circ;
                req.pipelineSpec = pipeline;
                req.calibrate = true;
                req.schedule = true;
                req.scheduleOptions.strategy = isa::Strategy::Asap;
                lines.push_back(caseLine(
                    std::string(chip) + "/" + pipeline + "/" + name,
                    svc.wait(svc.submit(std::move(req)))));
            }
        }
    }
    return lines;
}

/** Compare case lines against tests/golden_artifacts.txt. */
void
expectMatchesDigestFile(const std::vector<std::string> &got)
{
    std::map<std::string, std::string> want;
    std::istringstream file(
        test::readFile(std::string(REQISC_SOURCE_DIR) + kDigestFile));
    for (std::string line; std::getline(file, line);)
        if (!line.empty() && line[0] != '#')
            want[split(line).front()] = line;

    EXPECT_EQ(got.size(), 96u);
    EXPECT_EQ(want.size(), got.size())
        << "the digest file lists a different set of cases";
    for (const std::string &line : got) {
        const std::vector<std::string> g = split(line);
        const auto it = want.find(g.front());
        if (it == want.end()) {
            ADD_FAILURE() << "case " << g.front()
                          << " is not in the digest file\n"
                          << "  new digest: " << line;
            continue;
        }
        const std::vector<std::string> w = split(it->second);
        for (std::size_t i = 1; i < std::max(g.size(), w.size());
             ++i) {
            const std::string gi = i < g.size() ? g[i] : "<missing>";
            const std::string wi = i < w.size() ? w[i] : "<missing>";
            if (gi != wi) {
                ADD_FAILURE() << "case " << g.front()
                              << ": first differing field: want "
                              << wi << ", got " << gi << "\n"
                              << "  new digest: " << line;
                break;
            }
        }
    }
}

} // namespace

TEST(Golden, ArtifactsMatchCommittedDigests)
{
    expectMatchesDigestFile(compileAllCases(1));
}

TEST(Golden, ArtifactsMatchAtFourBlockWorkers)
{
    expectMatchesDigestFile(compileAllCases(4));
}
