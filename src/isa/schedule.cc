#include "isa/schedule.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace reqisc::isa
{

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::Serial: return "serial";
      case Strategy::Asap: return "asap";
      case Strategy::Alap: return "alap";
    }
    return "?";
}

bool
strategyFromName(const std::string &name, Strategy &out)
{
    if (name == "serial")
        out = Strategy::Serial;
    else if (name == "asap")
        out = Strategy::Asap;
    else if (name == "alap")
        out = Strategy::Alap;
    else
        return false;
    return true;
}

namespace
{

/**
 * ASAP start times for the gate list in the given order: start(g) =
 * max over g's qubits of the time the qubit becomes free. With qubit
 * exclusivity as the only resource constraint this is the per-gate
 * longest dependency chain, so the resulting makespan is the
 * critical-path length of the (order-induced) dependency DAG.
 */
std::vector<double>
asapStarts(const std::vector<const circuit::Gate *> &gates,
           const std::vector<double> &durations, int num_qubits,
           double *makespan_out)
{
    std::vector<double> free(num_qubits, 0.0);
    std::vector<double> starts(gates.size(), 0.0);
    double makespan = 0.0;
    for (size_t i = 0; i < gates.size(); ++i) {
        double t = 0.0;
        for (int q : gates[i]->qubits)
            t = std::max(t, free[q]);
        starts[i] = t;
        const double end = t + durations[i];
        for (int q : gates[i]->qubits)
            free[q] = end;
        makespan = std::max(makespan, end);
    }
    *makespan_out = makespan;
    return starts;
}

} // namespace

Program
schedule(const circuit::Circuit &c, const ScheduleOptions &opts)
{
    std::vector<const circuit::Gate *> gates;
    gates.reserve(c.size());
    for (const circuit::Gate &g : c) {
        if (g.numQubits() > 2)
            throw std::invalid_argument(
                std::string("isa::schedule: ") +
                circuit::opName(g.op) +
                " acts on more than two qubits; lower the circuit "
                "to <= 2-qubit gates first");
        if (opts.topology && g.is2Q() &&
            !opts.topology->connected(g.qubits[0], g.qubits[1]))
            throw std::invalid_argument(
                "isa::schedule: 2Q gate on unconnected pair q" +
                std::to_string(g.qubits[0]) + ",q" +
                std::to_string(g.qubits[1]) +
                "; route the circuit first");
        gates.push_back(&g);
    }
    std::vector<double> durations(gates.size());
    for (size_t i = 0; i < gates.size(); ++i)
        durations[i] = opts.durations.gate(*gates[i]);

    std::vector<double> starts(gates.size(), 0.0);
    switch (opts.strategy) {
      case Strategy::Serial: {
        double cursor = 0.0;
        for (size_t i = 0; i < gates.size(); ++i) {
            starts[i] = cursor;
            cursor += durations[i];
        }
        break;
      }
      case Strategy::Asap: {
        double makespan = 0.0;
        starts = asapStarts(gates, durations, c.numQubits(),
                            &makespan);
        break;
      }
      case Strategy::Alap: {
        // ALAP is the time-mirror of ASAP on the reversed gate list:
        // reversing the list reverses every qubit-order dependency,
        // and the critical path (hence the makespan) of the reversed
        // DAG is the same, so start = T - reversed_end is a valid
        // schedule with each gate as late as its successors allow.
        std::vector<const circuit::Gate *> rgates(gates.rbegin(),
                                                  gates.rend());
        std::vector<double> rdur(durations.rbegin(),
                                 durations.rend());
        double makespan = 0.0;
        const std::vector<double> rstarts = asapStarts(
            rgates, rdur, c.numQubits(), &makespan);
        for (size_t i = 0; i < gates.size(); ++i) {
            const size_t r = gates.size() - 1 - i;
            starts[i] = makespan - (rstarts[r] + rdur[r]);
        }
        break;
      }
    }

    Program p(c.numQubits());
    for (size_t i = 0; i < gates.size(); ++i)
        p.add(Instruction::timedGate(*gates[i], starts[i],
                                     durations[i]));
    p.sortByStart();
    return p;
}

} // namespace reqisc::isa
