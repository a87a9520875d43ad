#include "isa/duration_model.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "uarch/duration.hh"

namespace reqisc::isa
{

const uarch::Coupling &
DurationModel::couplingFor(int a, int b) const
{
    if (!edgeCoupling.empty()) {
        const auto it = edgeCoupling.find(std::minmax(a, b));
        if (it != edgeCoupling.end())
            return it->second;
    }
    return coupling;
}

double
DurationModel::gate(const circuit::Gate &g) const
{
    if (g.is1Q())
        return kDefaultOneQubitDuration;
    if (g.is2Q())
        return uarch::optimalDuration(
            couplingFor(g.qubits[0], g.qubits[1]), g.weylCoord());
    throw std::invalid_argument(
        std::string("DurationModel: cannot time ") +
        std::to_string(g.numQubits()) + "-qubit gate '" +
        circuit::opName(g.op) + "'; lower to <= 2-qubit gates first");
}

} // namespace reqisc::isa
