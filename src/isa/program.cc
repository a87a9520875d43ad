#include "isa/program.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace reqisc::isa
{

namespace
{

/** Interval-overlap slack: abutting instructions are not a clash. */
constexpr double kOverlapEps = 1e-9;

} // namespace

Instruction
Instruction::timedGate(circuit::Gate g, double start, double duration)
{
    Instruction i;
    i.kind = Kind::Gate;
    i.gate = std::move(g);
    i.start = start;
    i.duration = duration;
    return i;
}

void
Program::add(Instruction instr)
{
    instrs_.push_back(std::move(instr));
}

void
Program::sortByStart()
{
    std::stable_sort(instrs_.begin(), instrs_.end(),
                     [](const Instruction &a, const Instruction &b) {
                         return a.start < b.start;
                     });
}

double
Program::makespan() const
{
    double m = 0.0;
    for (const Instruction &i : instrs_)
        m = std::max(m, i.end());
    return m;
}

ScheduleStats
Program::stats() const
{
    ScheduleStats s;
    s.scheduled = true;
    s.instructions = static_cast<int>(instrs_.size());
    s.makespan = makespan();
    // Per-qubit occupancy windows for the idle-time accounting.
    std::vector<double> first(numQubits_, -1.0);
    std::vector<double> last(numQubits_, 0.0);
    std::vector<double> busy(numQubits_, 0.0);
    for (const Instruction &i : instrs_) {
        s.serialDuration += i.duration;
        for (int q : i.qubits()) {
            if (first[q] < 0.0 || i.start < first[q])
                first[q] = i.start;
            last[q] = std::max(last[q], i.end());
            busy[q] += i.duration;
        }
    }
    for (int q = 0; q < numQubits_; ++q)
        if (first[q] >= 0.0)
            s.idleTime += (last[q] - first[q]) - busy[q];
    s.parallelism =
        s.makespan > 0.0 ? s.serialDuration / s.makespan : 0.0;
    return s;
}

std::vector<std::string>
Program::validate(const route::Topology *topo) const
{
    std::vector<std::string> errs;
    auto complain = [&](size_t idx, const std::string &what) {
        std::ostringstream os;
        os << "instruction " << idx << ": " << what;
        errs.push_back(os.str());
    };
    // Per-qubit interval lists for the exclusivity check.
    std::vector<std::vector<std::pair<double, double>>> windows(
        numQubits_);
    for (size_t idx = 0; idx < instrs_.size(); ++idx) {
        const Instruction &i = instrs_[idx];
        if (!std::isfinite(i.start) || i.start < 0.0)
            complain(idx, "negative or non-finite start time");
        if (!std::isfinite(i.duration) || i.duration < 0.0)
            complain(idx, "negative or non-finite duration");
        const std::string bad =
            i.kind == Instruction::Kind::Gate
                ? circuit::gateError(i.gate, numQubits_)
                : circuit::operandError(i.qubits(), numQubits_);
        if (!bad.empty()) {
            complain(idx, bad);
            continue;
        }
        if (topo && i.kind == Instruction::Kind::Gate &&
            i.qubits().size() == 2 &&
            !topo->connected(i.qubits()[0], i.qubits()[1]))
            complain(idx, "2Q gate on unconnected pair q" +
                              std::to_string(i.qubits()[0]) + ",q" +
                              std::to_string(i.qubits()[1]));
        for (int q : i.qubits())
            windows[q].emplace_back(i.start, i.end());
    }
    for (int q = 0; q < numQubits_; ++q) {
        auto &w = windows[q];
        std::sort(w.begin(), w.end());
        for (size_t k = 1; k < w.size(); ++k)
            if (w[k].first < w[k - 1].second - kOverlapEps) {
                std::ostringstream os;
                os << "qubit " << q
                   << ": overlapping instructions at t="
                   << w[k].first;
                errs.push_back(os.str());
            }
    }
    return errs;
}

circuit::Circuit
Program::toCircuit() const
{
    std::vector<const Instruction *> order;
    order.reserve(instrs_.size());
    for (const Instruction &i : instrs_)
        if (i.kind == Instruction::Kind::Gate)
            order.push_back(&i);
    std::stable_sort(order.begin(), order.end(),
                     [](const Instruction *a, const Instruction *b) {
                         return a->start < b->start;
                     });
    circuit::Circuit c(numQubits_);
    for (const Instruction *i : order)
        c.add(i->gate);
    return c;
}

} // namespace reqisc::isa
