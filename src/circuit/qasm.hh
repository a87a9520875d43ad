/**
 * @file
 * Textual circuit serialization (OpenQASM-2-flavoured) and the one
 * gate syntax of every textual format.
 *
 * The paper's artifact emits QASM for every compiled benchmark; this
 * is the equivalent interchange path. All named ops round-trip;
 * opaque U4 blocks are expanded into {Can, U3} before writing.
 * Gate parameters are written as radians with 17 significant digits
 * (round-trip exact for doubles); the non-standard "can" mnemonic
 * carries the Weyl coordinates (x, y, z) as its three parameters.
 *
 * A gate reads `name(p,…) q[i],q[j]` in QASM, in RQISA assembly
 * (isa/assembly.hh) and in Gate::toString: writeGate writes it and
 * splitGate splits it, and each reader then applies gateError.
 */

#ifndef REQISC_CIRCUIT_QASM_HH
#define REQISC_CIRCUIT_QASM_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "circuit/circuit.hh"

namespace reqisc::circuit
{

/** Serialize a circuit (U4 blocks are expanded to {Can, U3}). */
std::string toQasm(const Circuit &c);

/**
 * Parse a circuit written by toQasm (or hand-written in the same
 * dialect: one register, named q). Throws std::runtime_error on
 * malformed input, a second qreg, another register name and a gate
 * that fails gateError included.
 */
Circuit fromQasm(const std::string &text);

/**
 * The whitespace that separates the tokens of a gate and the fields
 * of an RQISA instruction.
 */
inline constexpr std::string_view kWhitespace = " \t\r\n";

/**
 * Write one gate: the name, its parameters (if any) in parentheses
 * at the stream's precision, a space, then the comma-separated
 * `q[i]` operands.
 */
void writeGate(std::ostream &os, std::string_view name,
               const std::vector<double> &params,
               const std::vector<int> &qubits);

/**
 * Split the text writeGate writes. The name runs to the first
 * whitespace or '('; a parenthesized, comma-separated parameter list
 * may follow, and the rest is the operand list: comma-separated
 * `q[i]` tokens and nothing else (whitespace around and inside the
 * tokens is allowed).
 * Fills `name` and a fresh gate's `params` and `qubits` (the op is
 * the caller's to resolve).
 * @return "" or why the text does not split, naming the bad token.
 */
std::string splitGate(std::string_view text, std::string_view &name,
                      Gate &g);

/**
 * Strict numeric-token parsers shared by the textual formats (QASM
 * here, RQISA assembly in isa/): surrounding whitespace is trimmed,
 * then the whole token must parse — trailing garbage, overflow and
 * empty tokens all return false instead of throwing.
 */
bool parseTokenInt(std::string_view tok, int &out);
bool parseTokenDouble(std::string_view tok, double &out);

} // namespace reqisc::circuit

#endif // REQISC_CIRCUIT_QASM_HH
