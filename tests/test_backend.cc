/**
 * @file
 * Tests for the backend subsystem: the chip-file JSON reader, its
 * field/line-named error paths and its \uXXXX decoding, per-edge
 * duration / per-qubit noise model wiring, the gate-set
 * reconfiguration loop (analytic application counts pinned against
 * the numeric fixed-basis decomposition), and the acceptance property — on the heterogeneous
 * example chips the reconfigured per-edge gate set estimates at
 * least the fidelity of the best uniform gate set on every example
 * circuit and strictly more on at least one.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.hh"
#include "backend/json.hh"
#include "backend/reconfigure.hh"
#include "circuit/qasm.hh"
#include "isa/fidelity.hh"
#include "isa/program.hh"
#include "service/service.hh"
#include "synth/synthesis.hh"
#include "uarch/duration.hh"
#include "weyl/weyl.hh"
#include "test_util.hh"

using namespace reqisc;

namespace
{

std::string
repoPath(const std::string &rel)
{
    return std::string(REQISC_SOURCE_DIR) + "/" + rel;
}

std::string
chipPath(const std::string &name)
{
    return repoPath("examples/chips/" + name);
}

/**
 * Assert that parsing `json` fails and the error message carries
 * the context prefix and every expected fragment (field names, line
 * numbers).
 */
void
expectRejected(const std::string &json,
               const std::vector<std::string> &fragments)
{
    try {
        backend::Backend::fromJson(json, "chip.json");
        FAIL() << "expected rejection of: " << json;
    } catch (const backend::JsonError &e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.rfind("chip.json:", 0), 0u)
            << "error lacks file context: " << msg;
        for (const std::string &frag : fragments)
            EXPECT_NE(msg.find(frag), std::string::npos)
                << "error '" << msg << "' lacks fragment '" << frag
                << "'";
    }
}

/**
 * A two-qubit chip with one mutable line: `qubitLine` replaces the
 * first qubit entry, `edgeLines` the edge list body. Keeps the
 * error-path tests readable without string surgery.
 */
std::string
chipWith(const std::string &qubitLine,
         const std::string &edgeLines)
{
    return "{\n"
           "  \"name\": \"t\",\n"
           "  \"qubits\": [\n"
           "    " + qubitLine + ",\n"
           "    {\"t1\": 100, \"t2\": 50}\n"
           "  ],\n"
           "  \"edges\": [\n"
           "    " + edgeLines + "\n"
           "  ]\n"
           "}";
}

const char kPlainEdge[] =
    "{\"qubits\": [0, 1], \"coupling\": {\"type\": \"xy\"}}";
const char kPlainQubit[] = "{\"t1\": 100, \"t2\": 50}";

} // namespace

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

TEST(BackendJson, ParsesValuesAndTracksLines)
{
    const backend::JsonValue doc = backend::parseJson(
        "{\n \"a\": [1, 2.5, -3e2],\n \"b\": \"x\\n\",\n"
        " \"c\": true,\n \"d\": null\n}",
        "t");
    ASSERT_TRUE(doc.isObject());
    const backend::JsonValue *a = doc.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
    EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
    EXPECT_EQ(a->line, 2);
    const backend::JsonValue *b = doc.find("b");
    ASSERT_TRUE(b && b->isString());
    EXPECT_EQ(b->str, "x\n");
    EXPECT_EQ(b->line, 3);
    EXPECT_TRUE(doc.find("c")->boolean);
    EXPECT_TRUE(doc.find("d")->isNull());
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(BackendJson, MalformedInputNamesTheLine)
{
    const auto expectParseError =
        [](const std::string &text, const std::string &fragment) {
            try {
                backend::parseJson(text, "f.json");
                FAIL() << "expected parse error for: " << text;
            } catch (const backend::JsonError &e) {
                const std::string msg = e.what();
                EXPECT_EQ(msg.rfind("f.json:", 0), 0u) << msg;
                EXPECT_NE(msg.find(fragment), std::string::npos)
                    << msg << " lacks " << fragment;
            }
        };
    expectParseError("{\"a\": [1, 2", "unexpected end");
    expectParseError("{\"a\": 1} x", "trailing content");
    expectParseError("{\n\"a\": 01x\n}", "expected");
    expectParseError("{\n\n \"a\": truu}", "invalid literal");
    expectParseError("{\"a\": \"unterminated", "unterminated");
    // The line number points at the offending token.
    try {
        backend::parseJson("{\n \"a\": 1,\n \"b\": }\n}", "f.json");
        FAIL();
    } catch (const backend::JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("f.json:3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BackendJson, DecodesUnicodeEscapesToUtf8)
{
    EXPECT_EQ(backend::parseJson("\"\\u00e9\"").str, "\xc3\xa9");
    EXPECT_EQ(backend::parseJson("\"\\ud83d\\ude00\"").str,
              "\xf0\x9f\x98\x80");
    EXPECT_EQ(backend::parseJson("\"A\\u0041\\u20AC\\u0000\"").str,
              std::string("AA\xe2\x82\xac\0", 6));
}

TEST(BackendJson, RejectsMalformedUnicodeEscapes)
{
    // Each error names the offending escape.
    const std::pair<const char *, const char *> cases[] = {
        {"\"\\u12\"", "\\u12"},
        {"[\"\\u12g4\"]", "\\u12g4"},
        {"\"\\ud800\"", "\\ud800"},
        {"\"\\ud800\\u0041\"", "\\ud800\\u0041"},
        {"\"\\udc00\"", "\\udc00"},
    };
    for (const auto &[text, escape] : cases) {
        try {
            backend::parseJson(text, "u.json");
            ADD_FAILURE() << "expected parse error for: " << text;
        } catch (const backend::JsonError &e) {
            const std::string msg = e.what();
            EXPECT_EQ(msg.rfind("u.json:1:", 0), 0u) << msg;
            EXPECT_NE(msg.find(escape), std::string::npos)
                << msg << " lacks " << escape;
        }
    }
}

TEST(BackendJson, DumpThenParseRoundTripsEveryByteAndUtf8)
{
    const auto roundTrip = [](const std::string &s) {
        return backend::parseJson(
                   backend::dumpJson(backend::JsonValue::makeString(s)))
            .str;
    };
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        EXPECT_EQ(roundTrip(one), one) << "byte " << b;
    }
    const std::string utf8 =
        "caf\xc3\xa9 \xce\xbb \xe2\x82\xac \xf0\x9f\x98\x80";
    EXPECT_EQ(roundTrip(utf8), utf8);
}

// ---------------------------------------------------------------------
// Chip-file schema validation (the satellite error-path checklist)
// ---------------------------------------------------------------------

TEST(BackendSchema, RejectsMalformedFile)
{
    expectRejected("{ \"qubits\": [", {"unexpected end"});
    expectRejected("[1, 2]", {"top-level object"});
    expectRejected("{\"qubits\": [{}], \"edges\": 3}",
                   {"chip.edges", "expected array, got number"});
}

TEST(BackendSchema, RejectsUnknownFields)
{
    expectRejected(
        R"({"qubits": [{"t3": 1}], "edges": []})",
        {"qubits[0]", "unknown field 't3'"});
}

TEST(BackendSchema, RejectsEdgeWithOutOfRangeQubit)
{
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [0, 9], "
                 "\"coupling\": {\"type\": \"xy\"}}"),
        {"edges[0].qubits[1] = 9", "out of range [0, 2)"});
    // A fractional index is rejected too.
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [0, 0.5], "
                 "\"coupling\": {\"type\": \"xy\"}}"),
        {"edges[0].qubits[1]", "out of range"});
}

TEST(BackendSchema, RejectsSelfLoopAndDuplicateEdges)
{
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [1, 1], "
                 "\"coupling\": {\"type\": \"xy\"}}"),
        {"edges[0].qubits", "self-loop on q1"});

    // A reversed duplicate is still a duplicate.
    expectRejected(
        chipWith(kPlainQubit,
                 std::string(kPlainEdge) + ",\n    "
                 "{\"qubits\": [1, 0], "
                 "\"coupling\": {\"type\": \"xy\"}}"),
        {"edges[1]", "duplicate of edges[0]", "(q0, q1)"});
}

TEST(BackendSchema, RejectsNonPositiveT1T2AndBadReadout)
{
    // The line number of the offending field (line 4: the first
    // qubit entry) is part of the message.
    expectRejected(chipWith("{\"t1\": 0, \"t2\": 50}", kPlainEdge),
                   {"chip.json:4", "qubits[0].t1",
                    "must be positive"});
    expectRejected(
        chipWith("{\"t1\": 100, \"t2\": -5}", kPlainEdge),
        {"qubits[0].t2", "must be positive"});
    expectRejected(
        chipWith("{\"t1\": 100, \"t2\": 50, "
                 "\"readoutError\": 1.5}",
                 kPlainEdge),
        {"qubits[0].readoutError", "[0, 1)"});
}

TEST(BackendSchema, RejectsBadCouplings)
{
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [0, 1], "
                 "\"coupling\": {\"type\": \"xy\", \"g\": 0.0}}"),
        {"edges[0].coupling.g", "positive"});
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [0, 1], "
                 "\"coupling\": {\"type\": \"zz\"}}"),
        {"edges[0].coupling.type", "unknown coupling type 'zz'"});
    // Non-canonical explicit coefficients (b > a).
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [0, 1], "
                 "\"coupling\": {\"a\": 0.1, \"b\": 0.5}}"),
        {"edges[0].coupling", "canonical"});
    // Zero strength.
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [0, 1], "
                 "\"coupling\": {\"a\": 0.0}}"),
        {"edges[0].coupling", "must be positive"});
}

TEST(BackendSchema, RejectsBadP0AndDisconnectedTopology)
{
    expectRejected(
        chipWith(kPlainQubit,
                 "{\"qubits\": [0, 1], "
                 "\"coupling\": {\"type\": \"xy\"}, \"p0\": 1.0}"),
        {"edges[0].p0", "[0, 1)"});

    expectRejected(
        R"({"qubits": [{}, {}, {}],
            "edges": [{"qubits": [0, 1],
                       "coupling": {"type": "xy"}}]})",
        {"chip.edges", "disconnected"});

    expectRejected(R"({"qubits": [{}, {}], "edges": []})",
                   {"chip.edges", "at least one edge"});
}

// ---------------------------------------------------------------------
// Loading the shipped chips + model wiring
// ---------------------------------------------------------------------

TEST(Backend, LoadsEveryShippedChipFile)
{
    for (const char *name :
         {"chain8_xy.json", "xx_chain5.json",
          "hetero_heavy_hex.json", "noisy_corner_grid9.json"}) {
        const backend::Backend chip =
            backend::Backend::fromJsonFile(chipPath(name));
        EXPECT_GE(chip.numQubits(), 5) << name;
        EXPECT_TRUE(chip.topology().isConnected()) << name;
        EXPECT_EQ(chip.topology().numQubits(), chip.numQubits());
        EXPECT_EQ(chip.topology().edges().size(),
                  chip.edges().size());
    }
}

TEST(Backend, HeavyHexFieldsSurviveTheRoundTrip)
{
    const backend::Backend chip = backend::Backend::fromJsonFile(
        chipPath("hetero_heavy_hex.json"));
    EXPECT_EQ(chip.name(), "hetero_heavy_hex");
    EXPECT_EQ(chip.numQubits(), 12);
    EXPECT_EQ(chip.edges().size(), 13u);
    EXPECT_FALSE(chip.isHomogeneous());

    // Edge (2,3) is the xx(0.9) coupler.
    const backend::EdgeProperties &e23 = chip.edge(2, 3);
    EXPECT_DOUBLE_EQ(e23.coupling.a, 0.9);
    EXPECT_DOUBLE_EQ(e23.coupling.b, 0.0);
    EXPECT_DOUBLE_EQ(e23.coupling.c, 0.0);
    EXPECT_DOUBLE_EQ(e23.p0, 0.0015);
    // Lookup is orientation-free.
    EXPECT_DOUBLE_EQ(chip.edge(3, 2).coupling.a, 0.9);
    EXPECT_TRUE(chip.hasEdge(3, 10));
    EXPECT_FALSE(chip.hasEdge(0, 5));
    EXPECT_THROW(chip.edge(0, 5), std::invalid_argument);

    EXPECT_DOUBLE_EQ(chip.qubit(11).t1, 650.0);
    EXPECT_DOUBLE_EQ(chip.qubit(11).readoutError, 0.028);
}

TEST(Backend, UniformFactoryMatchesTopologyAndDefaults)
{
    const route::Topology topo = route::Topology::gridFor(6);
    backend::QubitCalibration cal;
    cal.t1 = 500.0;
    cal.t2 = 250.0;
    const backend::Backend chip = backend::Backend::uniform(
        topo, uarch::Coupling::xx(0.8), cal, 0.002);
    EXPECT_EQ(chip.numQubits(), topo.numQubits());
    EXPECT_EQ(chip.edges().size(), topo.edges().size());
    EXPECT_TRUE(chip.isHomogeneous());
    for (const auto &e : chip.edges()) {
        EXPECT_DOUBLE_EQ(e.coupling.a, 0.8);
        EXPECT_DOUBLE_EQ(e.p0, 0.002);
    }
    EXPECT_DOUBLE_EQ(chip.qubit(0).t1, 500.0);
}

TEST(Backend, DurationModelUsesPerEdgeCouplings)
{
    const backend::Backend chip = backend::Backend::fromJsonFile(
        chipPath("hetero_heavy_hex.json"));
    const isa::DurationModel model = chip.durationModel();

    // CX on the xx(0.9) edge vs on the xy(1.0) edge: the same gate
    // class is timed against each edge's own coupling.
    const double onXx = model.gate(circuit::Gate::cx(2, 3));
    const double onXy = model.gate(circuit::Gate::cx(0, 1));
    EXPECT_NEAR(onXx,
                uarch::optimalDuration(uarch::Coupling::xx(0.9),
                                       weyl::WeylCoord::cnot()),
                1e-12);
    EXPECT_NEAR(onXy,
                uarch::optimalDuration(uarch::Coupling::xy(1.0),
                                       weyl::WeylCoord::cnot()),
                1e-12);
    EXPECT_GT(onXy, onXx);
    // Orientation does not matter.
    EXPECT_NEAR(model.gate(circuit::Gate::cx(3, 2)), onXx, 1e-12);
    // Off-edge pairs fall back to the chip-wide fallback coupling.
    EXPECT_NEAR(model.gate(circuit::Gate::cx(0, 5)),
                uarch::optimalDuration(model.coupling,
                                       weyl::WeylCoord::cnot()),
                1e-12);
    // An empty map reproduces the pre-backend behavior.
    isa::DurationModel plain;
    EXPECT_NEAR(plain.gate(circuit::Gate::cx(2, 3)),
                uarch::optimalDuration(plain.coupling,
                                       weyl::WeylCoord::cnot()),
                1e-12);
}

TEST(Backend, NoiseModelCarriesPerQubitAndPerEdgeCalibration)
{
    const backend::Backend chip = backend::Backend::fromJsonFile(
        chipPath("hetero_heavy_hex.json"));
    const isa::NoiseModel noise = chip.noiseModel();
    EXPECT_DOUBLE_EQ(noise.t1For(11), 650.0);
    EXPECT_DOUBLE_EQ(noise.t2For(11), 300.0);
    EXPECT_DOUBLE_EQ(noise.t1For(0), 2400.0);
    EXPECT_DOUBLE_EQ(noise.p0For(3, 4), 0.003);
    EXPECT_DOUBLE_EQ(noise.p0For(4, 3), 0.003);
    // Unlisted pairs fall back to the scalar default.
    EXPECT_DOUBLE_EQ(noise.p0For(0, 5), noise.p0);
}

TEST(Backend, AnalyticFidelityFeelsPerQubitDecoherence)
{
    // One idle window on qubit 0 between its two gates.
    isa::Program p(2);
    p.add(isa::Instruction::timedGate(circuit::Gate::x(0), 0.0,
                                      1.0));
    p.add(isa::Instruction::timedGate(circuit::Gate::x(1), 0.0,
                                      11.0));
    p.add(isa::Instruction::timedGate(
        circuit::Gate::cx(0, 1), 11.0, 1.0));

    isa::NoiseModel noisyQ0;
    noisyQ0.t1PerQubit = {100.0,
                          std::numeric_limits<double>::infinity()};
    isa::NoiseModel clean;
    const double fNoisy = isa::analyticFidelity(p, noisyQ0);
    const double fClean = isa::analyticFidelity(p, clean);
    EXPECT_LT(fNoisy, fClean);
    // Only qubit 0 idles in-window, so the loss matches exp(-dt/T1).
    EXPECT_NEAR(fNoisy / fClean, std::exp(-10.0 / 100.0), 1e-12);

    // Per-edge p0 scales the 2Q depolarizing factor.
    isa::NoiseModel edgy;
    edgy.p0PerEdge[{0, 1}] = 0.01;
    const double fEdge = isa::analyticFidelity(p, edgy);
    EXPECT_NEAR(fEdge / fClean,
                (1.0 - 0.01 * 1.0 / edgy.tau0) /
                    (1.0 - edgy.p0 * 1.0 / edgy.tau0),
                1e-12);
}

// ---------------------------------------------------------------------
// Reconfiguration loop
// ---------------------------------------------------------------------

TEST(Reconfigure, ApplicationCountsMatchNumericDecomposition)
{
    using weyl::WeylCoord;
    const struct
    {
        const char *name;
        WeylCoord coord;
    } targets[] = {
        {"identity", WeylCoord::identity()},
        {"cnot", WeylCoord::cnot()},
        {"iswap", WeylCoord::iswap()},
        {"sqisw", WeylCoord::sqisw()},
        {"b", WeylCoord::bgate()},
        {"swap", WeylCoord::swap()},
        {"generic", {0.55, 0.35, 0.15}},
    };
    for (const auto &cand : backend::gateSetCandidates()) {
        for (const auto &[name, coord] : targets) {
            const std::vector<circuit::Gate> gates =
                synth::su4ToFixedBasis(
                    0, 1, weyl::canonicalGate(coord), cand.op);
            int numeric = 0;
            for (const circuit::Gate &g : gates)
                if (g.is2Q())
                    ++numeric;
            if (gates.empty() && coord.norm1() > 1e-9)
                continue;  // numeric search failed; no information
            EXPECT_EQ(backend::applicationsFor(cand.op, coord),
                      numeric)
                << "basis " << cand.name << ", target " << name;
        }
    }
    EXPECT_THROW(
        backend::applicationsFor(circuit::Op::ISWAP,
                                 weyl::WeylCoord::cnot()),
        std::invalid_argument);
}

TEST(Reconfigure, PerEdgeChoiceDominatesUniformOnEveryEdge)
{
    for (const char *name :
         {"chain8_xy.json", "xx_chain5.json",
          "hetero_heavy_hex.json", "noisy_corner_grid9.json"}) {
        const backend::Backend chip =
            backend::Backend::fromJsonFile(chipPath(name));
        const backend::ReconfigureResult rc =
            backend::reconfigure(chip);
        ASSERT_EQ(rc.table.size(), chip.edges().size()) << name;
        ASSERT_EQ(rc.uniformTable.size(), chip.edges().size());
        for (size_t i = 0; i < rc.table.size(); ++i) {
            EXPECT_GE(rc.table[i].score,
                      rc.uniformTable[i].score - 1e-12)
                << name << " edge " << i;
            EXPECT_EQ(rc.uniformTable[i].op, rc.uniformOp);
        }
        if (chip.isHomogeneous()) {
            EXPECT_FALSE(rc.differsFromUniform()) << name;
        } else {
            EXPECT_TRUE(rc.differsFromUniform()) << name;
        }
    }
}

TEST(Reconfigure, HeterogeneousChipsMixInstructionsAsDesigned)
{
    const backend::Backend hex = backend::Backend::fromJsonFile(
        chipPath("hetero_heavy_hex.json"));
    const backend::ReconfigureResult rc = backend::reconfigure(hex);
    // XY edges keep SQiSW; XX and ZZ-parasitic edges flip to CX.
    EXPECT_EQ(rc.instruction(0, 1).name, "sqisw");
    EXPECT_EQ(rc.instruction(2, 3).name, "cx");
    EXPECT_EQ(rc.instruction(3, 4).name, "cx");
    EXPECT_EQ(rc.instruction(4, 5).name, "sqisw");
    EXPECT_THROW(rc.instruction(0, 7), std::invalid_argument);
    // The pure-XX chain flips chip-wide: uniform == per-edge == cx.
    const backend::Backend xx = backend::Backend::fromJsonFile(
        chipPath("xx_chain5.json"));
    const backend::ReconfigureResult rcXx =
        backend::reconfigure(xx);
    EXPECT_EQ(rcXx.uniformName, "cx");
    EXPECT_FALSE(rcXx.differsFromUniform());
}

// ---------------------------------------------------------------------
// Service integration + the acceptance property
// ---------------------------------------------------------------------

namespace
{

std::vector<service::CompileRequest>
exampleQasmBatch()
{
    std::vector<service::CompileRequest> batch;
    for (const char *rel :
         {"examples/qasm/ghz8.qasm", "examples/qasm/qft4.qasm",
          "examples/qasm/adder5.qasm",
          "examples/qasm/ising6.qasm"}) {
        service::CompileRequest req;
        req.name = rel;
        req.qasm = test::readFile(repoPath(rel));
        req.calibrate = false;
        batch.push_back(std::move(req));
    }
    return batch;
}

} // namespace

TEST(BackendService, RoutesOntoTheChipAndSchedulesPerEdge)
{
    service::ServiceOptions sopts;
    sopts.backend = std::make_shared<const backend::Backend>(
        backend::Backend::fromJsonFile(
            chipPath("hetero_heavy_hex.json")));
    service::CompileService svc(sopts);
    ASSERT_NE(svc.backend(), nullptr);
    ASSERT_NE(svc.reconfiguration(), nullptr);

    std::vector<service::CompileRequest> batch =
        exampleQasmBatch();
    for (auto &req : batch)
        req.schedule = true;
    svc.submitBatch(std::move(batch));
    for (const service::JobResult &r : svc.waitAll()) {
        ASSERT_TRUE(r.ok) << r.name << ": " << r.errorInfo.message;
        EXPECT_TRUE(r.metrics.backend.used);
        // The routed circuit respects the chip topology.
        EXPECT_EQ(r.routed.numQubits(),
                  svc.backend()->numQubits());
        for (const circuit::Gate &g : r.routed) {
            if (g.is2Q()) {
                EXPECT_TRUE(svc.backend()->hasEdge(g.qubits[0],
                                                   g.qubits[1]))
                    << r.name << ": " << g.toString();
            }
        }
        // The timed program validates against the topology too.
        EXPECT_TRUE(r.metrics.schedule.scheduled);
        EXPECT_TRUE(
            r.program.validate(&svc.backend()->topology()).empty());
        // finalLayout is a valid injective wire assignment.
        std::vector<bool> seen(
            static_cast<size_t>(svc.backend()->numQubits()),
            false);
        for (int w : r.finalLayout) {
            ASSERT_GE(w, 0);
            ASSERT_LT(w, svc.backend()->numQubits());
            EXPECT_FALSE(seen[static_cast<size_t>(w)]);
            seen[static_cast<size_t>(w)] = true;
        }
    }
}

TEST(BackendService, AcceptanceReconfiguredBeatsUniformOnHeteroChips)
{
    // The PR's headline property: on every heterogeneous example
    // chip, the reconfigured per-edge gate set estimates >= the
    // fixed uniform gate set on EVERY example circuit and strictly
    // more on at least one.
    for (const char *name :
         {"hetero_heavy_hex.json", "noisy_corner_grid9.json"}) {
        service::ServiceOptions sopts;
        sopts.backend = std::make_shared<const backend::Backend>(
            backend::Backend::fromJsonFile(chipPath(name)));
        service::CompileService svc(sopts);
        svc.submitBatch(exampleQasmBatch());
        int strictly = 0;
        for (const service::JobResult &r : svc.waitAll()) {
            ASSERT_TRUE(r.ok) << name << "/" << r.name << ": "
                              << r.errorInfo.message;
            const auto &b = r.metrics.backend;
            EXPECT_GE(b.fidelityReconfigured,
                      b.fidelityUniform - 1e-12)
                << name << "/" << r.name;
            EXPECT_GT(b.fidelityReconfigured, 0.0);
            if (b.fidelityReconfigured >
                b.fidelityUniform + 1e-9)
                ++strictly;
        }
        EXPECT_GE(strictly, 1)
            << name
            << ": no circuit benefited strictly from per-edge "
               "reconfiguration";
    }
}

TEST(BackendService, HomogeneousChipKeepsThePulseCacheAlive)
{
    service::ServiceOptions sopts;
    sopts.backend = std::make_shared<const backend::Backend>(
        backend::Backend::fromJsonFile(chipPath("chain8_xy.json")));
    service::CompileService svc(sopts);
    std::vector<service::CompileRequest> batch =
        exampleQasmBatch();
    for (auto &req : batch)
        req.calibrate = true;
    svc.submitBatch(std::move(batch));
    for (const service::JobResult &r : svc.waitAll())
        ASSERT_TRUE(r.ok) << r.name << ": " << r.errorInfo.message;
    // Calibration planning ran against the shared pulse cache.
    const compiler::CacheCounters stats = svc.pulseCacheStats();
    EXPECT_GT(stats.hits + stats.misses, 0);
}

TEST(BackendService, NonXyHomogeneousChipIsTheOneDeviceOfItsJobs)
{
    // xx_chain5 couples every edge by XX at g = 1. A job that fell
    // back to XY at g = 1 anywhere (timing, schedule or pulse cache)
    // would describe another device than the one it targets.
    const auto chip = std::make_shared<const backend::Backend>(
        backend::Backend::fromJsonFile(chipPath("xx_chain5.json")));
    const uarch::Coupling xx = uarch::Coupling::xx(1.0);
    const uarch::Coupling xy = uarch::Coupling::xy(1.0);
    const std::string dir =
        ::testing::TempDir() + "reqisc_backend_xx_chain5";
    std::filesystem::remove_all(dir);
    service::ServiceOptions sopts;
    sopts.backend = chip;
    sopts.cacheDir = dir;
    const std::string adder5 =
        test::readFile(repoPath("examples/qasm/adder5.qasm"));
    {
        service::CompileService svc(sopts);

        // No route pass: the logical circuit is timed on XX.
        service::CompileRequest unrouted;
        unrouted.name = "adder5-unrouted";
        unrouted.qasm = adder5;
        unrouted.pipelineSpec = "custom:synth,fuse,lower,schedule";
        const service::JobResult r = svc.wait(svc.submit(unrouted));
        ASSERT_TRUE(r.ok) << r.errorInfo.message;
        EXPECT_FALSE(r.metrics.backend.used);
        int twoQ = 0;
        for (const isa::Instruction &i : r.program.instructions()) {
            if (!i.gate.is2Q())
                continue;
            ++twoQ;
            EXPECT_EQ(i.duration,
                      uarch::optimalDuration(xx, i.gate.weylCoord()))
                << i.gate.toString();
        }
        EXPECT_GT(twoQ, 0);
        EXPECT_EQ(r.metrics.duration,
                  compiler::evaluate(r.compiled.circuit,
                                     compiler::reqiscDurationModel(xx))
                      .duration);
        EXPECT_NE(r.metrics.duration,
                  compiler::evaluate(r.compiled.circuit,
                                     compiler::reqiscDurationModel(xy))
                      .duration);

        // Routed: scheduled under the chip's per-edge model.
        service::CompileRequest routed;
        routed.name = "adder5-routed";
        routed.qasm = adder5;
        routed.pipelineSpec = "eff";
        routed.schedule = true;
        const service::JobResult e = svc.wait(svc.submit(routed));
        ASSERT_TRUE(e.ok) << e.errorInfo.message;
        EXPECT_TRUE(e.metrics.backend.used);
        EXPECT_TRUE(e.program.validate(&chip->topology()).empty());
        const isa::DurationModel model = chip->durationModel();
        twoQ = 0;
        for (const isa::Instruction &i : e.program.instructions()) {
            if (!i.gate.is2Q())
                continue;
            ++twoQ;
            EXPECT_EQ(i.duration, model.gate(i.gate))
                << i.gate.toString();
        }
        EXPECT_GT(twoQ, 0);
        EXPECT_EQ(e.metrics.duration,
                  compiler::evaluate(e.routed,
                                     [&model](const circuit::Gate &g) {
                                         return g.numQubits() < 2
                                                    ? 0.0
                                                    : model.gate(g);
                                     })
                      .duration);
    }

    // The saved pulse cache belongs to XX, not to XY.
    const std::string saved = dir + "/pulse.cache";
    service::PulseCache onXx(xx);
    EXPECT_TRUE(onXx.load(saved));
    EXPECT_GT(onXx.size(), 0u);
    service::PulseCache onXy(xy);
    EXPECT_FALSE(onXy.load(saved));
    std::filesystem::remove_all(dir);
}

TEST(BackendService, EstimateFidelityRejectsUnroutedCircuits)
{
    const backend::Backend chip = backend::Backend::fromJsonFile(
        chipPath("chain8_xy.json"));
    const backend::ReconfigureResult rc =
        backend::reconfigure(chip);
    circuit::Circuit offTopology(8);
    offTopology.add(circuit::Gate::cx(0, 5));
    EXPECT_THROW(
        backend::estimateFidelity(offTopology, chip, rc.table),
        std::invalid_argument);
    circuit::Circuit routed(8);
    routed.add(circuit::Gate::cx(0, 1));
    const double f =
        backend::estimateFidelity(routed, chip, rc.table);
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 1.0);
}
