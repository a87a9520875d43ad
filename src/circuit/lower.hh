/**
 * @file
 * Lowering passes between IR levels.
 *
 * High-level IR (MCX / CCX / Peres / CSWAP, named 2Q gates) is lowered
 * to the conventional {CX, 1Q} ISA for the baselines and Table 1
 * statistics. The generic SU(4) -> 3 CX case lives in the synth module
 * (it needs the numeric instantiation engine); here we provide the
 * analytic cases (0 / 1 / 2 CX and an exact 4-CX fallback).
 */

#ifndef REQISC_CIRCUIT_LOWER_HH
#define REQISC_CIRCUIT_LOWER_HH

#include "circuit/circuit.hh"

namespace reqisc::circuit
{

/**
 * Rewrite every MCX with >= 3 controls into a clean-ancilla CCX
 * ladder. Ancillas are taken from qubits unused by the gate; the
 * caller guarantees enough idle (|0>) qubits exist, as the RevLib-
 * style benchmarks do. Throws std::invalid_argument on an MCX with k
 * controls whose register leaves fewer than k - 2 other wires.
 */
Circuit decomposeMcx(const Circuit &c);

/** Rewrite CCX / CCZ / CSWAP / PERES into {CX, 1Q} gates. */
Circuit lowerThreeQubit(const Circuit &c);

/**
 * Lower everything to the conventional CNOT ISA {CX, 1Q}.
 * Generic SU(4) blocks fall back to an exact 4-CX construction; the
 * synth module provides the optimal 3-CX path used by the compiler.
 */
Circuit lowerToCnot(const Circuit &c);

/**
 * Express an arbitrary two-qubit unitary on qubits (a, b) over
 * {CX, U3} exactly (up to global phase). Uses 0 / 1 / 2 CX when the
 * Weyl coordinates permit, otherwise the 4-CX analytic fallback.
 */
std::vector<Gate> gateToCnotsAnalytic(int a, int b, const Matrix &u);

/**
 * Express u = phase * (l1 (x) l2) * v * (r1 (x) r2) given that u and v
 * share Weyl coordinates; returns false if they do not.
 */
bool conjugateOnto(const Matrix &u, const Matrix &v, Matrix &l1,
                   Matrix &l2, Matrix &r1, Matrix &r2);

/** Emit a U3 gate for an arbitrary 2x2 unitary (drops global phase). */
Gate u3FromMatrix(int q, const Matrix &m);

/**
 * Rewrite CAN/U4 gates as U3 + CAN + U3 normal form: every 2Q gate
 * becomes a bare canonical gate with explicit 1Q dressing, the shape
 * the ReQISC backend consumes. A U4 takes its factors from its
 * payload, so a U4 whose coordinate was already read is not
 * decomposed again. Gates on three or more qubits pass through
 * unchanged.
 */
Circuit expandToCanU3(const Circuit &c);

} // namespace reqisc::circuit

#endif // REQISC_CIRCUIT_LOWER_HH
