#include "backend/reconfigure.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "uarch/duration.hh"

namespace reqisc::backend
{

namespace
{

/** Weyl-coordinate tolerance of applicationsFor's class tests. */
constexpr double kApplicationsTol = 1e-9;

} // namespace

const std::vector<GateSetCandidate> &
gateSetCandidates()
{
    static const std::vector<GateSetCandidate> kCandidates = {
        {circuit::Op::CX, weyl::WeylCoord::cnot(), "cx"},
        {circuit::Op::SQISW, weyl::WeylCoord::sqisw(), "sqisw"},
        {circuit::Op::B, weyl::WeylCoord::bgate(), "b"},
    };
    return kCandidates;
}

int
applicationsFor(circuit::Op op, const weyl::WeylCoord &target)
{
    constexpr double tol = kApplicationsTol;
    if (target.norm1() < tol)
        return 0;
    const GateSetCandidate *cand = nullptr;
    for (const GateSetCandidate &c : gateSetCandidates())
        if (c.op == op)
            cand = &c;
    if (!cand)
        throw std::invalid_argument(
            std::string("applicationsFor: '") + circuit::opName(op) +
            "' is not a gate-set candidate");
    if (cand->coord.approxEqual(target, tol))
        return 1;
    switch (op) {
      case circuit::Op::CX:
        // Two CX + locals realize exactly the z = 0 classes
        // (Shende-Bullock-Markov); everything else needs three.
        return std::abs(target.z) < tol ? 2 : 3;
      case circuit::Op::SQISW:
        // Two SQiSW + locals cover W' = {x >= y + |z|}
        // (arXiv:2105.06074); three suffice everywhere.
        return target.x >= target.y + std::abs(target.z) - tol ? 2
                                                               : 3;
      case circuit::Op::B:
        // Two B applications realize any SU(4) (Zhang et al.,
        // PRL 93, 020502).
        return 2;
      default:
        break;
    }
    throw std::invalid_argument("applicationsFor: unreachable");
}

namespace
{

/** Workload-expected applications of `op` per 2Q instruction. */
double
expectedApplications(circuit::Op op)
{
    // The 2Q class mix of the compiled suite after fusion, mirroring
    // and routing: CNOT-class dominated, a routing-SWAP share, the
    // other named classes, and a generic + near-identity tail.
    static const std::pair<weyl::WeylCoord, double> kWorkload[] = {
        {weyl::WeylCoord::cnot(), 0.45},
        {weyl::WeylCoord::swap(), 0.15},
        {weyl::WeylCoord::sqisw(), 0.05},
        {weyl::WeylCoord::iswap(), 0.05},
        {weyl::WeylCoord::bgate(), 0.05},
        {{0.55, 0.35, 0.15}, 0.15},   // generic interior SU(4)
        {{0.06, 0.03, 0.015}, 0.10},  // near-identity residual
    };
    double apps = 0.0, total = 0.0;
    for (const auto &[coord, weight] : kWorkload) {
        apps += weight * applicationsFor(op, coord);
        total += weight;
    }
    return apps / total;
}

/** Score one candidate on one edge (appFidelity^expectedApps). */
EdgeInstruction
scoreCandidate(const Backend &backend, const EdgeProperties &edge,
               const GateSetCandidate &cand, double expected_apps,
               double tau0)
{
    EdgeInstruction instr;
    instr.a = edge.a;
    instr.b = edge.b;
    instr.op = cand.op;
    instr.name = cand.name;
    instr.coord = cand.coord;
    const uarch::DurationInfo info =
        uarch::durationInfo(edge.coupling, cand.coord);
    instr.duration = info.tau;
    instr.scheme = info.scheme;
    const double perr =
        std::min(1.0, edge.p0 * instr.duration / tau0);
    const double rate = backend.qubit(edge.a).decayRate() +
                        backend.qubit(edge.b).decayRate();
    instr.appFidelity =
        (1.0 - perr) * std::exp(-instr.duration * rate);
    instr.expectedApps = expected_apps;
    instr.score = std::pow(instr.appFidelity, expected_apps);
    return instr;
}

const EdgeInstruction &
lookup(const std::vector<EdgeInstruction> &table, int a, int b)
{
    if (a > b)
        std::swap(a, b);
    for (const EdgeInstruction &e : table)
        if (e.a == a && e.b == b)
            return e;
    throw std::invalid_argument(
        "ReconfigureResult: no instruction for edge (q" +
        std::to_string(a) + ", q" + std::to_string(b) + ")");
}

} // namespace

const EdgeInstruction &
ReconfigureResult::instruction(int a, int b) const
{
    return lookup(table, a, b);
}

bool
ReconfigureResult::differsFromUniform() const
{
    for (const EdgeInstruction &e : table)
        if (e.op != uniformOp)
            return true;
    return false;
}

ReconfigureResult
reconfigure(const Backend &backend)
{
    const std::vector<GateSetCandidate> &cands = gateSetCandidates();
    std::vector<double> expected;
    expected.reserve(cands.size());
    for (const GateSetCandidate &c : cands)
        expected.push_back(expectedApplications(c.op));
    const double tau0 = isa::NoiseModel{}.tau0;

    ReconfigureResult res;
    res.table.reserve(backend.edges().size());
    // log-score per candidate summed over edges: the uniform baseline
    // is the single candidate with the best chip-wide product.
    std::vector<double> uniformLog(cands.size(), 0.0);
    std::vector<std::vector<EdgeInstruction>> scored(cands.size());
    for (size_t ci = 0; ci < cands.size(); ++ci)
        scored[ci].reserve(backend.edges().size());

    for (const EdgeProperties &edge : backend.edges()) {
        size_t best = 0;
        for (size_t ci = 0; ci < cands.size(); ++ci) {
            scored[ci].push_back(scoreCandidate(
                backend, edge, cands[ci], expected[ci], tau0));
            const EdgeInstruction &instr = scored[ci].back();
            uniformLog[ci] +=
                std::log(std::max(instr.score, 1e-300));
            const EdgeInstruction &cur = scored[best].back();
            // Deterministic selection: best score, then shorter
            // pulse, then candidate order.
            const EdgeInstruction &challenger = instr;
            if (ci != best &&
                (challenger.score > cur.score ||
                 (challenger.score == cur.score &&
                  challenger.duration < cur.duration)))
                best = ci;
        }
        res.table.push_back(scored[best].back());
    }

    size_t bestUniform = 0;
    for (size_t ci = 1; ci < cands.size(); ++ci)
        if (uniformLog[ci] > uniformLog[bestUniform])
            bestUniform = ci;
    res.uniformOp = cands[bestUniform].op;
    res.uniformName = cands[bestUniform].name;
    res.uniformTable = std::move(scored[bestUniform]);
    return res;
}

double
estimateFidelity(const circuit::Circuit &routed,
                 const Backend &backend,
                 const std::vector<EdgeInstruction> &table)
{
    double logf = 0.0;
    std::set<int> used;
    for (const circuit::Gate &g : routed) {
        if (g.numQubits() > 2)
            throw std::invalid_argument(
                std::string("estimateFidelity: ") +
                circuit::opName(g.op) +
                " acts on more than two qubits; lower the circuit "
                "first");
        for (int q : g.qubits)
            used.insert(q);
        if (g.is1Q()) {
            logf -= isa::kDefaultOneQubitDuration *
                    backend.qubit(g.qubits[0]).decayRate();
            continue;
        }
        if (!backend.hasEdge(g.qubits[0], g.qubits[1]))
            throw std::invalid_argument(
                "estimateFidelity: 2Q gate on unconnected pair q" +
                std::to_string(g.qubits[0]) + ",q" +
                std::to_string(g.qubits[1]) +
                "; route the circuit onto the backend first");
        const EdgeInstruction &instr =
            lookup(table, g.qubits[0], g.qubits[1]);
        logf += std::log(
            std::max(instr.score,
                     std::numeric_limits<double>::min()));
    }
    double f = std::exp(logf);
    for (int q : used)
        f *= 1.0 - backend.qubit(q).readoutError;
    return f;
}

} // namespace reqisc::backend
