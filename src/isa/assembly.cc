#include "isa/assembly.hh"

#include <sstream>
#include <stdexcept>

#include "circuit/qasm.hh"  // the gate syntax and numeric tokens

namespace reqisc::isa
{

namespace
{

constexpr char kHeader[] = "RQISA 1.0;";
constexpr char kMeasureMnemonic[] = "meas";

/** Thrown with the offending line number attached. */
[[noreturn]] void
fail(int lineno, const std::string &msg)
{
    throw std::runtime_error("rqisa parse error at line " +
                             std::to_string(lineno) + ": " + msg);
}

double
parseDouble(const std::string &tok, int lineno)
{
    double v = 0.0;
    if (!circuit::parseTokenDouble(tok, v))
        fail(lineno, "bad number '" + tok + "'");
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
        const size_t begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos)
            continue;
        const size_t end = line.find_last_not_of(" \t\r");
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
        if (!saw_qubits) {
            std::istringstream ls(line);
            std::string kw, count;
            ls >> kw >> count;
            if (kw != "qubits" || count.empty())
                fail(lineno, "expected 'qubits N;'");
            const int n = parseInt(count, lineno);
            if (n <= 0)
                fail(lineno, "qubit count must be positive");
            p = Program(n);
            saw_qubits = true;
            continue;
        }
        if (line.empty() || line[0] != '@')
            fail(lineno, "instruction must start with '@'");
        const size_t sp0 = line.find(' ');
        if (sp0 == std::string::npos)
            fail(lineno, "missing mnemonic");
        Instruction instr;
        instr.start = parseDouble(line.substr(1, sp0 - 1), lineno);
        const size_t dur_kw = line.find(" dur ", sp0 + 1);
        if (dur_kw == std::string::npos)
            fail(lineno, "missing 'dur' field");
        std::string_view mnemonic;
        std::string bad = circuit::splitGate(
            std::string_view(line).substr(sp0 + 1, dur_kw - sp0 - 1),
            mnemonic, instr.gate);
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
        instr.duration = parseDouble(line.substr(dur_kw + 5), lineno);
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
