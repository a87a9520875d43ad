/**
 * @file
 * RQISA textual assembly: the interchange format for timed programs,
 * so executable schedules can be dumped, diffed, and re-ingested.
 *
 * Grammar (one instruction per line; '#' starts a comment; any run of
 * spaces and tabs separates the fields; numbers are decimal doubles
 * printed with 17 significant digits, which makes the emit -> parse
 * -> emit round-trip byte-identical):
 *
 *   program := "RQISA 1.0;" NL "qubits" INT ";" NL line*
 *   line    := "@" FLOAT mnemonic params? operands "dur" FLOAT ";" NL
 *   mnemonic:= gate-name | "meas"          // gate-name as in QASM
 *   params  := "(" FLOAT ("," FLOAT)* ")"
 *   operands:= "q[" INT "]" ("," "q[" INT "]")*
 *
 * Example:
 *   RQISA 1.0;
 *   qubits 2;
 *   @0 u3(1.5707963267948966,0,3.1415926535897931) q[0] dur 0.25;
 *   @0.25 can(0.78539816339744828,0,0) q[0],q[1] dur 2.2214414690791831;
 *   @2.4714414690791831 meas q[0] dur 10;
 *   @2.4714414690791831 meas q[1] dur 10;
 *
 * Gates share circuit/qasm.hh's syntax and are checked by
 * circuit::gateError line by line; the parser enforces the other
 * Program invariants (qubit exclusivity) on ingest, so a parsed
 * program is always valid.
 */

#ifndef REQISC_ISA_ASSEMBLY_HH
#define REQISC_ISA_ASSEMBLY_HH

#include <string>

#include "isa/program.hh"

namespace reqisc::isa
{

/**
 * Serialize a program; instruction order is preserved. Throws
 * std::invalid_argument on opaque U4 instructions (no textual form —
 * expand to {Can, U3} before scheduling), so emitted text always
 * re-parses.
 */
std::string toAssembly(const Program &p);

/**
 * Parse assembly written by toAssembly (or hand-written in the same
 * dialect). Throws std::runtime_error with a line number on malformed
 * input or on a program-invariant violation.
 */
Program fromAssembly(const std::string &text);

} // namespace reqisc::isa

#endif // REQISC_ISA_ASSEMBLY_HH
