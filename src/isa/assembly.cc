#include "isa/assembly.hh"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "circuit/qasm.hh"  // the gate syntax and numeric tokens

namespace reqisc::isa
{

namespace
{

constexpr char kHeader[] = "RQISA 1.0;";
constexpr char kMeasureMnemonic[] = "meas";
using circuit::kWhitespace;

/** Thrown with the offending line number attached. */
[[noreturn]] void
fail(int lineno, const std::string &msg)
{
    throw std::runtime_error("rqisa parse error at line " +
                             std::to_string(lineno) + ": " + msg);
}

double
parseDouble(std::string_view tok, int lineno)
{
    double v = 0.0;
    if (!circuit::parseTokenDouble(tok, v))
        fail(lineno, "bad number '" + std::string(tok) + "'");
    return v;
}

int
parseInt(const std::string &tok, int lineno)
{
    int v = 0;
    if (!circuit::parseTokenInt(tok, v))
        fail(lineno, "bad integer '" + tok + "'");
    return v;
}

/**
 * Remove the last whitespace-separated field of `s`, which has no
 * whitespace at either end (nor has it after), and return it.
 */
std::string_view
popLastField(std::string_view &s)
{
    const size_t at = s.find_last_of(kWhitespace);
    if (at == std::string_view::npos)
        return std::exchange(s, {});
    const std::string_view field = s.substr(at + 1);
    s = s.substr(0, s.find_last_not_of(kWhitespace, at) + 1);
    return field;
}

} // namespace

std::string
toAssembly(const Program &p)
{
    std::ostringstream os;
    os.precision(17);
    os << kHeader << "\n";
    os << "qubits " << p.numQubits() << ";\n";
    const std::vector<double> none;  // a measurement writes no params
    for (const Instruction &i : p.instructions()) {
        const bool meas = i.kind == Instruction::Kind::Measure;
        // Opaque matrix payloads have no textual form; a 'u4' line
        // could never round-trip, so refuse loudly.
        if (!meas && i.gate.op == circuit::Op::U4)
            throw std::invalid_argument(
                "isa::toAssembly: opaque u4 block has no RQISA "
                "form; expand to {Can, U3} "
                "(circuit::expandToCanU3) before scheduling");
        os << "@" << i.start << " ";
        circuit::writeGate(
            os, meas ? kMeasureMnemonic : circuit::opName(i.gate.op),
            meas ? none : i.gate.params, i.qubits());
        os << " dur " << i.duration << ";\n";
    }
    return os.str();
}

Program
fromAssembly(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    bool saw_header = false;
    bool saw_qubits = false;
    Program p;
    while (std::getline(is, line)) {
        ++lineno;
        const size_t comment = line.find('#');
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        const size_t begin = line.find_first_not_of(kWhitespace);
        if (begin == std::string::npos)
            continue;
        const size_t end = line.find_last_not_of(kWhitespace);
        line = line.substr(begin, end - begin + 1);

        if (!saw_header) {
            if (line != kHeader)
                fail(lineno, "expected '" + std::string(kHeader) +
                                 "' header");
            saw_header = true;
            continue;
        }
        if (line.back() != ';')
            fail(lineno, "missing ';'");
        line.pop_back();
        line.erase(line.find_last_not_of(kWhitespace) + 1);
        if (!saw_qubits) {
            // Exactly two fields, split as instruction fields are.
            std::string_view rest(line);
            const std::string_view count = popLastField(rest);
            if (rest != "qubits")
                fail(lineno, "expected 'qubits N;'");
            const int n = parseInt(std::string(count), lineno);
            if (n <= 0)
                fail(lineno, "qubit count must be positive");
            p = Program(n);
            saw_qubits = true;
            continue;
        }
        if (line.empty() || line[0] != '@')
            fail(lineno, "instruction must start with '@'");
        // The fields, split on whitespace: "@start" first, "dur" and
        // the duration last, and the gate text between them.
        std::string_view rest(line);
        const size_t start_end = rest.find_first_of(kWhitespace);
        if (start_end == std::string::npos)
            fail(lineno, "missing mnemonic");
        Instruction instr;
        instr.start = parseDouble(rest.substr(1, start_end - 1), lineno);
        rest.remove_prefix(rest.find_first_not_of(kWhitespace, start_end));
        const std::string_view duration = popLastField(rest);
        if (popLastField(rest) != "dur")
            fail(lineno, "missing 'dur' field");
        std::string_view mnemonic;
        std::string bad = circuit::splitGate(rest, mnemonic, instr.gate);
        if (!bad.empty())
            fail(lineno, bad);
        if (mnemonic == kMeasureMnemonic) {
            if (!instr.gate.params.empty())
                fail(lineno, "meas takes no parameters");
            instr.kind = Instruction::Kind::Measure;
            bad = circuit::operandError(instr.qubits(), p.numQubits());
        } else if (circuit::opFromName(mnemonic, instr.gate.op)) {
            bad = circuit::gateError(instr.gate, p.numQubits());
        } else {
            bad = "unknown mnemonic '" + std::string(mnemonic) + "'";
        }
        if (!bad.empty())
            fail(lineno, bad);
        instr.duration = parseDouble(duration, lineno);
        p.add(std::move(instr));
    }
    if (!saw_header)
        fail(lineno ? lineno : 1, "empty input (no RQISA header)");
    if (!saw_qubits)
        fail(lineno ? lineno : 1, "missing 'qubits N;' declaration");
    const std::vector<std::string> errs = p.validate();
    if (!errs.empty())
        throw std::runtime_error("rqisa invalid program: " +
                                 errs.front());
    return p;
}

} // namespace reqisc::isa
