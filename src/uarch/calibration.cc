#include "uarch/calibration.hh"

#include <chrono>

namespace reqisc::uarch
{

CalibrationPlan
planCalibration(const circuit::Circuit &c, const Coupling &cpl,
                double cluster_tol, PulseMemo *memo,
                synth::BlockPool *pool)
{
    CalibrationPlan plan;
    GateScheme scheme(cpl, pool);
    for (const circuit::SU4Class &cls : c.su4Classes(cluster_tol)) {
        CalibrationEntry e;
        e.coord = cls.coord;
        e.uses = cls.uses;
        if (memo && memo->lookup(e.coord, e.pulse)) {
            plan.entries.push_back(std::move(e));
            continue;
        }
        const auto t0 = std::chrono::steady_clock::now();
        e.pulse = scheme.solveCoord(e.coord);
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (memo)
            memo->store(e.coord, e.pulse, secs);
        if (!e.pulse.converged)
            ++plan.unsolved;
        plan.entries.push_back(std::move(e));
    }
    return plan;
}

} // namespace reqisc::uarch
