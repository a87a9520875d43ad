#include "circuit/circuit.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace reqisc::circuit
{

void
Circuit::add(Gate g)
{
    // Debug only: this is every pass's hot path, and the readers of
    // text and disk apply the same check in every build.
    assert(gateError(g, numQubits_).empty());
    gates_.push_back(std::move(g));
}

void
Circuit::append(const Circuit &other)
{
    assert(other.numQubits() <= numQubits_);
    for (const Gate &g : other.gates_)
        add(g);
}

int
Circuit::count2Q() const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (g.numQubits() >= 2)
            ++n;
    return n;
}

int
Circuit::countOp(Op op) const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (g.op == op)
            ++n;
    return n;
}

int
Circuit::depth2Q() const
{
    std::vector<int> frontier(numQubits_, 0);
    int depth = 0;
    for (const Gate &g : gates_) {
        if (g.numQubits() < 2)
            continue;
        int level = 0;
        for (int q : g.qubits)
            level = std::max(level, frontier[q]);
        ++level;
        for (int q : g.qubits)
            frontier[q] = level;
        depth = std::max(depth, level);
    }
    return depth;
}

std::vector<SU4Class>
Circuit::su4Classes(double tol) const
{
    std::vector<SU4Class> classes;
    for (const Gate &g : gates_) {
        if (!g.is2Q())
            continue;
        const weyl::WeylCoord c = g.weylCoord();
        const auto hit = std::find_if(
            classes.begin(), classes.end(), [&](const SU4Class &k) {
                return k.coord.approxEqual(c, tol);
            });
        if (hit != classes.end())
            ++hit->uses;
        else
            classes.push_back({c, 1});
    }
    return classes;
}

std::string
Circuit::toString() const
{
    std::ostringstream os;
    os << "circuit(" << numQubits_ << " qubits, " << gates_.size()
       << " gates)\n";
    for (const Gate &g : gates_)
        os << "  " << g.toString() << "\n";
    return os.str();
}

double
criticalPathDuration(
    const Circuit &c,
    const std::function<double(const Gate &)> &gate_duration)
{
    std::vector<double> frontier(c.numQubits(), 0.0);
    double total = 0.0;
    for (const Gate &g : c) {
        if (g.numQubits() < 2)
            continue;
        double start = 0.0;
        for (int q : g.qubits)
            start = std::max(start, frontier[q]);
        const double end = start + gate_duration(g);
        for (int q : g.qubits)
            frontier[q] = end;
        total = std::max(total, end);
    }
    return total;
}

} // namespace reqisc::circuit
