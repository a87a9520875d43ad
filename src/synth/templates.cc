#include "synth/templates.hh"

#include <algorithm>
#include <array>

#include "circuit/lower.hh"
#include "qsim/statevector.hh"
#include "synth/synthesis.hh"

namespace reqisc::synth
{

using circuit::Circuit;
using circuit::Gate;
using circuit::Op;

namespace
{

/** Permutation matrix for a 3-qubit relabeling q -> perm[q]. */
Matrix
permMatrix(const std::array<int, 3> &perm)
{
    Matrix p(8, 8);
    for (int idx = 0; idx < 8; ++idx) {
        int nidx = 0;
        for (int q = 0; q < 3; ++q) {
            const int bit = (idx >> (2 - q)) & 1;
            if (bit)
                nidx |= 1 << (2 - perm[q]);
        }
        p(nidx, idx) = 1.0;
    }
    return p;
}

/** Dagger of a {U4, U3} gate sequence (reversed order). */
std::vector<Gate>
daggerGates(const std::vector<Gate> &gates)
{
    std::vector<Gate> out;
    for (auto it = gates.rbegin(); it != gates.rend(); ++it) {
        const Gate &g = *it;
        if (g.op == Op::U4) {
            out.push_back(Gate::u4(g.qubits[0], g.qubits[1],
                                   g.matrix().dagger()));
        } else {
            out.push_back(circuit::u3FromMatrix(
                g.qubits[0], g.matrix().dagger()));
        }
    }
    return out;
}

/** Apply a role permutation to the qubit indices of a sequence. */
std::vector<Gate>
permuteGates(const std::vector<Gate> &gates,
             const std::array<int, 3> &perm)
{
    std::vector<Gate> out = gates;
    for (Gate &g : out)
        for (int &q : g.qubits)
            q = perm[q];
    return out;
}

TemplateEntry
makeEntry(std::vector<Gate> gates)
{
    TemplateEntry e;
    e.gates = std::move(gates);
    bool first = true;
    for (const Gate &g : e.gates) {
        if (!g.is2Q())
            continue;
        ++e.canCount;
        auto pr = std::minmax(g.qubits[0], g.qubits[1]);
        if (first) {
            e.firstPair = pr;
            first = false;
        }
        e.lastPair = pr;
    }
    return e;
}

} // namespace

TemplateLibrary &
TemplateLibrary::instance()
{
    static TemplateLibrary lib;
    return lib;
}

void
TemplateLibrary::build(Op op)
{
    Gate ir;
    switch (op) {
      case Op::CCX: ir = Gate::ccx(0, 1, 2); break;
      case Op::CCZ: ir = Gate::ccz(0, 1, 2); break;
      case Op::CSWAP: ir = Gate::cswap(0, 1, 2); break;
      case Op::PERES: ir = Gate::peres(0, 1, 2); break;
      default:
        assert(false && "unsupported IR op");
        return;
    }
    const Matrix target = ir.matrix();

    // Base templates: the minimal block count plus a second structure
    // at the same count if one converges (diversity for assembly).
    std::vector<std::vector<Gate>> bases;
    SynthesisOptions opts;
    opts.tol = 1e-9;
    opts.restarts = 4;
    SynthesisResult first = synthesizeBlock(target, {0, 1, 2}, opts);
    assert(first.success);
    bases.push_back(first.gates);

    // ECC expansion: qubit-role permutations that leave the IR
    // invariant, plus the reversed-dagger form for self-inverse IRs.
    const bool self_inverse =
        (target * target)
            .approxEqualUpToPhase(Matrix::identity(8), 1e-9);
    std::vector<std::array<int, 3>> perms;
    const std::array<int, 3> all_perms[6] = {
        {0, 1, 2}, {0, 2, 1}, {1, 0, 2},
        {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    for (const auto &p : all_perms) {
        const Matrix pm = permMatrix(p);
        if ((pm * target * pm.dagger())
                .approxEqualUpToPhase(target, 1e-9))
            perms.push_back(p);
    }

    std::vector<TemplateEntry> entries;
    auto addVariant = [&](const std::vector<Gate> &gates) {
        TemplateEntry e = makeEntry(gates);
        // Deduplicate on the (first, last) pair signature, keeping
        // the smallest block count.
        for (auto &ex : entries) {
            if (ex.firstPair == e.firstPair &&
                ex.lastPair == e.lastPair) {
                if (e.canCount < ex.canCount)
                    ex = e;
                return;
            }
        }
        entries.push_back(std::move(e));
    };
    for (const auto &base : bases) {
        for (const auto &p : perms) {
            addVariant(permuteGates(base, p));
            if (self_inverse)
                addVariant(daggerGates(permuteGates(base, p)));
        }
    }
    lib_[op] = std::move(entries);
}

const std::vector<TemplateEntry> &
TemplateLibrary::variants(Op op)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = lib_.find(op);
    if (it == lib_.end()) {
        build(op);
        it = lib_.find(op);
    }
    return it->second;
}

int
TemplateLibrary::minBlocks(Op op)
{
    int m = 1 << 20;
    for (const auto &e : variants(op))
        m = std::min(m, e.canCount);
    return m;
}

const TemplateEntry &
TemplateLibrary::pick(Op op, std::pair<int, int> preferred_first)
{
    const auto &vs = variants(op);
    const TemplateEntry *best = &vs.front();
    for (const auto &e : vs)
        if (e.canCount < best->canCount)
            best = &e;
    for (const auto &e : vs) {
        if (e.firstPair == preferred_first &&
            e.canCount <= best->canCount)
            return e;
    }
    return *best;
}

} // namespace reqisc::synth
