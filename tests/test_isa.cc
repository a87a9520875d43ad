/**
 * @file
 * Tests for the RQISA program layer: duration model, ASAP/ALAP/serial
 * scheduling invariants (qubit exclusivity, topology, makespan vs the
 * serial baseline), byte-identical assembly round-trips over every
 * example QASM circuit, and the timeline-aware fidelity estimator
 * (closed-form idle decoherence, agreement with qsim::simulateNoisy
 * when idle noise is off, ASAP beating serial under dephasing).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "compiler/metrics.hh"
#include "compiler/pipeline.hh"
#include "isa/assembly.hh"
#include "isa/duration_model.hh"
#include "isa/fidelity.hh"
#include "isa/program.hh"
#include "isa/schedule.hh"
#include "qmath/random.hh"
#include "qsim/density.hh"
#include "qsim/statevector.hh"
#include "route/sabre.hh"
#include "route/topology.hh"
#include "service/service.hh"
#include "uarch/duration.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::circuit;

namespace
{

/** The checked-in example programs (paths relative to the repo). */
const char *const kExampleFiles[] = {
    "examples/qasm/adder5.qasm",
    "examples/qasm/ghz8.qasm",
    "examples/qasm/ising6.qasm",
    "examples/qasm/qft4.qasm",
};

/** Sum of per-gate durations: the serial-schedule makespan. */
double
serialSum(const Circuit &c, const isa::DurationModel &m)
{
    double t = 0.0;
    for (const Gate &g : c)
        t += m.gate(g);
    return t;
}

Circuit
ghz(int n)
{
    Circuit c(n);
    c.add(Gate::h(0));
    for (int q = 0; q + 1 < n; ++q)
        c.add(Gate::cx(q, q + 1));
    return c;
}

} // namespace

// ---- DurationModel -----------------------------------------------------

TEST(DurationModel, DefaultsAndGateDurations)
{
    const isa::DurationModel m;
    EXPECT_DOUBLE_EQ(m.gate(Gate::h(0)),
                     isa::kDefaultOneQubitDuration);
    // 2Q gates cost their genAshN optimal duration on the coupling.
    const double cx = m.gate(Gate::cx(0, 1));
    EXPECT_NEAR(cx,
                uarch::optimalDuration(m.coupling,
                                       weyl::WeylCoord::cnot()),
                1e-12);
    EXPECT_GT(cx, 0.0);
    // High-level IR must be lowered before timing.
    EXPECT_THROW((void)m.gate(Gate::ccx(0, 1, 2)),
                 std::invalid_argument);
}

// ---- Scheduling --------------------------------------------------------

TEST(Schedule, AsapParallelizesDisjointGates)
{
    Circuit c(4);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(2, 3));

    isa::ScheduleOptions opts;
    const isa::Program p = isa::schedule(c, opts);
    EXPECT_TRUE(p.validate().empty());
    ASSERT_EQ(p.size(), 2u);
    // Disjoint pairs run concurrently: both start at t = 0.
    EXPECT_DOUBLE_EQ(p[0].start, 0.0);
    EXPECT_DOUBLE_EQ(p[1].start, 0.0);
    EXPECT_LT(p.makespan(),
              serialSum(c, opts.durations) - 1e-9);

    opts.strategy = isa::Strategy::Serial;
    const isa::Program s = isa::schedule(c, opts);
    EXPECT_TRUE(s.validate().empty());
    EXPECT_NEAR(s.makespan(), serialSum(c, opts.durations), 1e-12);
}

TEST(Schedule, ChainIsInherentlySerial)
{
    // Every gate of a GHZ chain shares a qubit with its predecessor,
    // so ASAP cannot beat the serial schedule.
    const Circuit c = ghz(5);
    isa::ScheduleOptions opts;
    const isa::Program p = isa::schedule(c, opts);
    EXPECT_TRUE(p.validate().empty());
    EXPECT_NEAR(p.makespan(), serialSum(c, opts.durations), 1e-9);
}

TEST(Schedule, AlapMirrorsAsap)
{
    // A circuit with real slack: q3's lone 1Q gate can sit anywhere.
    Circuit c(4);
    c.add(Gate::h(3));
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(1, 2));
    c.add(Gate::cx(2, 3));

    isa::ScheduleOptions opts;
    const isa::Program asap = isa::schedule(c, opts);
    opts.strategy = isa::Strategy::Alap;
    const isa::Program alap = isa::schedule(c, opts);
    EXPECT_TRUE(alap.validate().empty());
    EXPECT_NEAR(asap.makespan(), alap.makespan(), 1e-12);

    // ALAP pushes the slack gate late: h(3) must end exactly when
    // cx(2,3) starts instead of running at t = 0.
    const auto find_h = [](const isa::Program &p) {
        for (const isa::Instruction &i : p.instructions())
            if (i.kind == isa::Instruction::Kind::Gate &&
                i.gate.op == Op::H)
                return i;
        return isa::Instruction{};
    };
    EXPECT_DOUBLE_EQ(find_h(asap).start, 0.0);
    EXPECT_GT(find_h(alap).start, 0.0);

    // Both carry the same gates in the same per-qubit order.
    EXPECT_EQ(asap.toCircuit().size(), c.size());
    EXPECT_EQ(alap.toCircuit().size(), c.size());
}

TEST(Schedule, TopologyViolationThrowsAndRoutedPasses)
{
    const route::Topology chain = route::Topology::chain(8);
    Circuit bad(8);
    bad.add(Gate::cx(0, 7));
    isa::ScheduleOptions opts;
    opts.topology = &chain;
    EXPECT_THROW((void)isa::schedule(bad, opts),
                 std::invalid_argument);

    // A routed circuit schedules cleanly and validates against the
    // device graph.
    const route::RouteResult routed =
        route::sabreRoute(ghz(8), chain);
    const isa::Program p = isa::schedule(routed.circuit, opts);
    EXPECT_TRUE(p.validate(&chain).empty());
}

TEST(Schedule, ZeroOneQubitCostMatchesCriticalPathDuration)
{
    // Without its 1Q gates (which the paper's metrics convention
    // counts as free) the ASAP makespan is exactly the critical-path
    // pulse duration that compiler::Metrics reports.
    const Circuit qft = circuit::fromQasm(
        test::readFile(REQISC_SOURCE_DIR "/examples/qasm/qft4.qasm"));
    const compiler::CompileResult compiled = compiler::reqiscEff(qft);
    Circuit twoQubit(compiled.circuit.numQubits());
    for (const Gate &g : compiled.circuit)
        if (g.is2Q())
            twoQubit.add(g);
    ASSERT_LT(twoQubit.size(), compiled.circuit.size());
    isa::ScheduleOptions opts;
    const isa::Program p = isa::schedule(twoQubit, opts);
    const double critical = circuit::criticalPathDuration(
        compiled.circuit,
        compiler::reqiscDurationModel(opts.durations.coupling));
    EXPECT_NEAR(p.makespan(), critical, 1e-9);
}

TEST(Schedule, StatsReportMakespanParallelismIdle)
{
    Circuit c(4);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(2, 3));
    c.add(Gate::cx(1, 2));
    isa::ScheduleOptions opts;
    const isa::Program p = isa::schedule(c, opts);
    const isa::ScheduleStats s = p.stats();
    EXPECT_TRUE(s.scheduled);
    EXPECT_EQ(s.instructions, 3);
    EXPECT_NEAR(s.makespan, p.makespan(), 1e-12);
    EXPECT_NEAR(s.serialDuration, serialSum(c, opts.durations),
                1e-12);
    EXPECT_GT(s.parallelism, 1.0);  // the disjoint pair overlaps
    // All four qubits are busy whenever they are in-window here
    // (each participates in back-to-back gates), so idle time is 0.
    EXPECT_NEAR(s.idleTime, 0.0, 1e-9);
}

// ---- Assembly round-trip (acceptance property) -------------------------

TEST(Assembly, EmitParseEmitIsByteIdenticalOnEveryExample)
{
    int strictly_parallel = 0;
    for (const char *rel : kExampleFiles) {
        SCOPED_TRACE(rel);
        const Circuit parsed = circuit::fromQasm(
            test::readFile(std::string(REQISC_SOURCE_DIR) + "/" + rel));
        // adder5 contains CCX: lower to <= 2Q gates first.
        const Circuit c = circuit::lowerToCnot(parsed);

        for (const isa::Strategy strat :
             {isa::Strategy::Asap, isa::Strategy::Alap}) {
            isa::ScheduleOptions opts;
            opts.strategy = strat;
            const isa::Program p = isa::schedule(c, opts);

            // Schedule validity + the makespan bound.
            EXPECT_TRUE(p.validate().empty());
            const double serial = serialSum(c, opts.durations);
            EXPECT_LE(p.makespan(), serial + 1e-9);
            if (strat == isa::Strategy::Asap &&
                p.makespan() < serial - 1e-9)
                ++strictly_parallel;

            // Byte-identical emit -> parse -> emit.
            const std::string text = isa::toAssembly(p);
            const isa::Program back = isa::fromAssembly(text);
            EXPECT_EQ(isa::toAssembly(back), text);
            EXPECT_EQ(back.numQubits(), p.numQubits());
            EXPECT_EQ(back.size(), p.size());
            // Re-ingested circuit carries the same gate stream.
            EXPECT_EQ(back.toCircuit().toString(),
                      p.toCircuit().toString());
        }
    }
    // At least one example (qft4's final SWAP pair, ising6's
    // staggered trotter layers) must actually exploit parallelism.
    EXPECT_GE(strictly_parallel, 1);
}

TEST(Assembly, RoundTripWithMeasurementAndComments)
{
    // A global readout after the gates, as a control stack would
    // append it.
    const std::string text = "RQISA 1.0;\n"
                             "qubits 3;\n"
                             "@0 h q[0] dur 0.25;\n"
                             "@0.25 cx q[0],q[1] dur 2.5;\n"
                             "@2.75 cx q[1],q[2] dur 2.5;\n"
                             "@5.25 meas q[0] dur 10;\n"
                             "@5.25 meas q[1] dur 10;\n"
                             "@5.25 meas q[2] dur 10;\n";
    const isa::Program back =
        isa::fromAssembly("# a comment\n" + text + "\n# trailing\n");
    EXPECT_EQ(isa::toAssembly(back), text);
    ASSERT_EQ(back.size(), 6u);
    for (int q = 0; q < 3; ++q) {
        EXPECT_EQ(back[3 + q].kind, isa::Instruction::Kind::Measure);
        EXPECT_EQ(back[3 + q].qubits(), (std::vector<int>{q}));
    }
    // Re-ingest drops the readout and keeps the gate stream.
    EXPECT_EQ(back.toCircuit().toString(), ghz(3).toString());
}

TEST(Assembly, ParserRejectsMalformedInput)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        try {
            (void)isa::fromAssembly(text);
            FAIL() << "no error for: " << text;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    expectError("qubits 2;\n", "header");
    expectError("RQISA 1.0;\n", "qubits");
    expectError("RQISA 1.0;\nqubits 0;\n", "positive");
    expectError("RQISA 1.0;\nqubits 2 junk;\n", "expected 'qubits N;'");
    expectError("RQISA 1.0;\nqubits 2 7;\n", "expected 'qubits N;'");
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@0 frob q[0] dur 1;\n",
                "unknown mnemonic");
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@0 h q[5] dur 1;\n",
                "out of range");
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@x h q[0] dur 1;\n",
                "bad number");
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@0 h q[0] dur 1\n",
                "missing ';'");
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@0 h q[0];\n",
                "dur");
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@0 meas(0.5) q[0] dur 1;\n",
                "meas takes no parameters");
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@0 rx q[0] dur 1;\n",
                "parameter count");
    // The gate rule QASM applies, line by line.
    for (const char *gate :
         {"h q[0],q[1]", "cx q[0]", "ccx q[0],q[1]", "swap q[0],q[1],q[2]",
          "mcx q[0]"})
        expectError(std::string("RQISA 1.0;\nqubits 3;\n@0 ") + gate +
                        " dur 1;\n",
                    "line 3: wrong qubit count");
    expectError("RQISA 1.0;\nqubits 2;\n@0 rx(nan) q[0] dur 1;\n",
                "non-finite");
    expectError("RQISA 1.0;\nqubits 2;\n@0 rzz(inf) q[0],q[1] dur 1;\n",
                "non-finite");
    expectError("RQISA 1.0;\nqubits 2;\n@0 meas q[0],q[0] dur 1;\n",
                "duplicate qubit operand");
    // The operands are exactly the comma-separated q[i] tokens.
    expectError("RQISA 1.0;\nqubits 2;\n@0 h xq[0] dur 1;\n",
                "line 3: bad operand 'xq[0]'");
    expectError("RQISA 1.0;\nqubits 2;\n@0 cx q[0] junk q[1] dur 1;\n",
                "bad operand 'q[0] junk q[1]'");
    expectError("RQISA 1.0;\nqubits 2;\n@0 meas q[0], dur 1;\n",
                "bad operand ''");
    // The program invariants are enforced on ingest: two overlapping
    // instructions on one qubit are rejected.
    expectError("RQISA 1.0;\nqubits 2;\n"
                "@0 h q[0] dur 1;\n"
                "@0.5 x q[0] dur 1;\n",
                "overlapping");
}

TEST(GateText, OnlyEachOpsOwnCountsParse)
{
    // Every named op with 0-4 operands and 0-4 parameters through
    // both parsers. The expected counts come from the factories, not
    // the op table, and an MCX takes two operands or more.
    Gate id;
    id.qubits = {0};
    const std::vector<Gate> shapes = {
        id, Gate::x(0), Gate::y(0), Gate::z(0), Gate::h(0), Gate::s(0),
        Gate::sdg(0), Gate::t(0), Gate::tdg(0), Gate::sx(0),
        Gate::rx(0, 1), Gate::ry(0, 1), Gate::rz(0, 1),
        Gate::u3(0, 1, 2, 3), Gate::cx(0, 1), Gate::cy(0, 1),
        Gate::cz(0, 1), Gate::swap(0, 1), Gate::iswap(0, 1),
        Gate::sqisw(0, 1), Gate::bgate(0, 1), Gate::cp(0, 1, 1),
        Gate::rzz(0, 1, 1), Gate::rxx(0, 1, 1), Gate::ryy(0, 1, 1),
        Gate::can(0, 1, {0.5, 0.25, 0.125}), Gate::ccx(0, 1, 2),
        Gate::ccz(0, 1, 2), Gate::cswap(0, 1, 2), Gate::peres(0, 1, 2),
        Gate::mcx({0}, 1)};
    // Every op but the opaque u4 has a textual form and a shape here.
    std::set<Op> ops;
    for (const Gate &shape : shapes)
        ops.insert(shape.op);
    ASSERT_EQ(ops.size(), shapes.size());
    ASSERT_EQ(ops.size(), static_cast<size_t>(Op::MCX));
    ASSERT_EQ(ops.count(Op::U4), 0u);
    int accepted = 0;
    for (const Gate &shape : shapes) {
        const std::string name = opName(shape.op);
        for (int nq = 0; nq <= 4; ++nq) {
            for (int np = 0; np <= 4; ++np) {
                std::string text = name;
                for (int p = 0; p < np; ++p)
                    text += (p ? "," : "(") + std::to_string(0.25 * p) +
                            (p == np - 1 ? ")" : "");
                for (int q = 0; q < nq; ++q)
                    text += (q ? ",q[" : " q[") + std::to_string(q) + "]";
                const bool wantQubits =
                    shape.op == Op::MCX ? nq >= 2 : nq == shape.numQubits();
                const bool want =
                    wantQubits && np == static_cast<int>(shape.params.size());
                SCOPED_TRACE(text);
                bool qasm = true;
                try {
                    const Circuit c =
                        circuit::fromQasm("qreg q[5];\n" + text + ";\n");
                    ASSERT_EQ(c.size(), 1u);
                    EXPECT_EQ(c[0].op, shape.op);
                    EXPECT_EQ(c[0].numQubits(), nq);
                    EXPECT_EQ(static_cast<int>(c[0].params.size()), np);
                } catch (const std::runtime_error &) {
                    qasm = false;
                }
                bool rqisa = true;
                try {
                    (void)isa::fromAssembly("RQISA 1.0;\nqubits 5;\n@0 " +
                                            text + " dur 1;\n");
                } catch (const std::runtime_error &) {
                    rqisa = false;
                }
                EXPECT_EQ(qasm, want);
                EXPECT_EQ(rqisa, want);
                accepted += want;
            }
        }
    }
    // One shape per fixed-arity op, three for MCX (2, 3, 4 operands).
    EXPECT_EQ(accepted, static_cast<int>(shapes.size()) + 2);
}

TEST(Assembly, RefusesOpaqueU4Blocks)
{
    // u4 has no textual form (its matrix payload cannot round-trip),
    // so the emitter refuses instead of producing unparseable text.
    isa::Program p(2);
    qmath::Rng rng(3);
    p.add(isa::Instruction::timedGate(
        Gate::u4(0, 1, qmath::randomUnitary(4, rng)), 0.0, 1.0));
    EXPECT_THROW((void)isa::toAssembly(p), std::invalid_argument);
}

TEST(Assembly, ToleratesBenignWhitespaceInNumbers)
{
    const isa::Program p = isa::fromAssembly(
        "RQISA 1.0;\nqubits\t2;\n"
        "@0 rx( 0.5 ) q[ 0 ] dur 1;\n"
        "@1 cx q[0],q[ 1 ] dur 2;\n"
        "@3 cx q[1] ,\tq[0] dur 2;\n"
        "@5 h\tq[0] dur 1;\n"
        "@6\th q[0] dur 1;\n"
        "@7 h q[0]\tdur 1;\n"
        "@8 h q[0] dur\t1;\n");
    ASSERT_EQ(p.size(), 7u);
    EXPECT_DOUBLE_EQ(p[0].gate.params[0], 0.5);
    EXPECT_EQ(p[1].qubits()[1], 1);
    EXPECT_EQ(p[2].qubits(), (std::vector<int>{1, 0}));
    for (size_t i = 3; i < p.size(); ++i) {
        EXPECT_EQ(p[i].gate.op, Op::H);
        EXPECT_EQ(p[i].qubits(), (std::vector<int>{0}));
        EXPECT_DOUBLE_EQ(p[i].start, static_cast<double>(i + 2));
        EXPECT_DOUBLE_EQ(p[i].duration, 1.0);
    }
}

// ---- Timeline-aware fidelity -------------------------------------------

TEST(Fidelity, AmplitudeDampingClosedForm)
{
    // X, idle for dt, X: the qubit sits in |1> while idle, so
    // P(|0>) afterwards is exactly exp(-dt/T1).
    isa::Program p(1);
    p.add(isa::Instruction::timedGate(Gate::x(0), 0.0, 1.0));
    p.add(isa::Instruction::timedGate(Gate::x(0), 4.0, 1.0));
    isa::NoiseModel noise;
    noise.t1 = 10.0;
    const std::vector<double> probs = isa::simulateTimed(p, noise);
    const double dt = 3.0;
    EXPECT_NEAR(probs[0], std::exp(-dt / noise.t1), 1e-12);
    EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(Fidelity, DephasingClosedForm)
{
    // H, idle for dt, H: the |+> coherence decays by
    // sqrt(exp(-dt/T2)), so P(|0>) = (1 + exp(-dt/(2 T2))) / 2.
    isa::Program p(1);
    p.add(isa::Instruction::timedGate(Gate::h(0), 0.0, 1.0));
    p.add(isa::Instruction::timedGate(Gate::h(0), 6.0, 1.0));
    isa::NoiseModel noise;
    noise.t2 = 8.0;
    const std::vector<double> probs = isa::simulateTimed(p, noise);
    const double dt = 5.0;
    EXPECT_NEAR(probs[0],
                0.5 * (1.0 + std::exp(-dt / (2.0 * noise.t2))),
                1e-12);
}

TEST(Fidelity, QubitsInGroundStateAreFreeWhileWaiting)
{
    // q1 waits 100 time units in |0> before its only gate; with the
    // in-window idle convention that wait costs nothing.
    isa::Program p(2);
    p.add(isa::Instruction::timedGate(Gate::x(0), 0.0, 1.0));
    p.add(isa::Instruction::timedGate(Gate::x(0), 1.0, 1.0));
    p.add(isa::Instruction::timedGate(Gate::x(1), 100.0, 1.0));
    isa::NoiseModel noise;
    noise.t1 = 5.0;
    noise.t2 = 5.0;
    const std::vector<double> probs = isa::simulateTimed(p, noise);
    // |q0 q1> = |0 1> exactly: no decoherence anywhere.
    EXPECT_NEAR(probs[1], 1.0, 1e-12);
}

TEST(Fidelity, NoIdleNoiseMatchesSimulateNoisy)
{
    // With T1 = T2 = infinity the timed estimator reduces to the
    // Section-6.7 model of qsim::simulateNoisy on the same order.
    const compiler::CompileResult compiled =
        compiler::reqiscEff(ghz(3));
    isa::ScheduleOptions opts;
    opts.strategy = isa::Strategy::Serial;
    const isa::Program p = isa::schedule(compiled.circuit, opts);

    const isa::NoiseModel noise;  // idle channels off
    const std::vector<double> timed = isa::simulateTimed(p, noise);
    const std::vector<double> untimed = qsim::simulateNoisy(
        compiled.circuit,
        compiler::reqiscDurationModel(opts.durations.coupling),
        noise.p0, noise.tau0);
    ASSERT_EQ(timed.size(), untimed.size());
    for (size_t i = 0; i < timed.size(); ++i)
        EXPECT_NEAR(timed[i], untimed[i], 1e-10) << i;
}

TEST(Fidelity, AsapBeatsSerialUnderIdleNoise)
{
    // Two independent CX ladders: ASAP halves the idle time, so with
    // dephasing on, the ASAP program is strictly closer to the ideal
    // distribution. Gate error is switched off to isolate the
    // schedule's contribution.
    Circuit c(4);
    for (int rep = 0; rep < 3; ++rep) {
        c.add(Gate::h(0));
        c.add(Gate::h(2));
        c.add(Gate::cx(0, 1));
        c.add(Gate::cx(2, 3));
    }
    isa::ScheduleOptions opts;
    const isa::Program asap = isa::schedule(c, opts);
    opts.strategy = isa::Strategy::Serial;
    const isa::Program serial = isa::schedule(c, opts);
    ASSERT_LT(asap.makespan(), serial.makespan() - 1e-9);

    isa::NoiseModel ideal_noise;
    ideal_noise.p0 = 0.0;
    const std::vector<double> ideal =
        isa::simulateTimed(serial, ideal_noise);

    isa::NoiseModel noise;
    noise.p0 = 0.0;
    noise.t2 = 40.0;
    const double f_asap = qsim::hellingerFidelity(
        ideal, isa::simulateTimed(asap, noise));
    const double f_serial = qsim::hellingerFidelity(
        ideal, isa::simulateTimed(serial, noise));
    EXPECT_GT(f_asap, f_serial + 1e-6);

    // The closed-form proxy ranks the schedules the same way.
    EXPECT_GT(isa::analyticFidelity(asap, noise),
              isa::analyticFidelity(serial, noise) + 1e-9);
}

// ---- Service integration ----------------------------------------------

TEST(ServiceSchedule, JobsOptionallyScheduleAndFillMetrics)
{
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);

    service::CompileRequest plain;
    plain.name = "plain";
    plain.input = ghz(3);
    service::CompileRequest timed;
    timed.name = "timed";
    timed.input = ghz(3);
    timed.schedule = true;
    timed.scheduleOptions.strategy = isa::Strategy::Alap;

    const auto plain_id = svc.submit(std::move(plain));
    const auto timed_id = svc.submit(std::move(timed));

    const service::JobResult pr = svc.wait(plain_id);
    ASSERT_TRUE(pr.ok) << pr.errorInfo.message;
    EXPECT_FALSE(pr.metrics.schedule.scheduled);
    EXPECT_TRUE(pr.program.empty());

    const service::JobResult tr = svc.wait(timed_id);
    ASSERT_TRUE(tr.ok) << tr.errorInfo.message;
    EXPECT_TRUE(tr.metrics.schedule.scheduled);
    EXPECT_GT(tr.metrics.schedule.makespan, 0.0);
    EXPECT_EQ(tr.metrics.schedule.instructions,
              static_cast<int>(tr.program.size()));
    EXPECT_TRUE(tr.program.validate().empty());
    // The program is the compiled circuit, timed (ALAP may reorder
    // instructions across qubits, so compare counts, not streams).
    EXPECT_EQ(tr.program.toCircuit().size(),
              tr.compiled.circuit.size());
    // And it round-trips through assembly.
    const std::string text = isa::toAssembly(tr.program);
    EXPECT_EQ(isa::toAssembly(isa::fromAssembly(text)), text);
}
