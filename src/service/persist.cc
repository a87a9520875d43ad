#include "service/persist.hh"

#include <cstdio>
#include <cstring>

namespace reqisc::service::persist
{

namespace
{

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Sanity caps applied while parsing: a corrupted count field must
// fail the read, not drive a multi-gigabyte allocation.
constexpr std::uint32_t kMaxDim = 256;
constexpr std::uint32_t kMaxGateQubits = 8;
constexpr std::uint32_t kMaxGateParams = 16;

} // namespace

std::uint64_t
fnv1aBytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

// ---- Writer ------------------------------------------------------------

void
Writer::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void
Writer::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void
Writer::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
Writer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::matrix(const qmath::Matrix &m)
{
    u32(static_cast<std::uint32_t>(m.rows()));
    u32(static_cast<std::uint32_t>(m.cols()));
    for (int i = 0; i < m.rows(); ++i) {
        for (int j = 0; j < m.cols(); ++j) {
            f64(m(i, j).real());
            f64(m(i, j).imag());
        }
    }
}

void
Writer::gate(const circuit::Gate &g)
{
    u32(static_cast<std::uint32_t>(g.op));
    u32(static_cast<std::uint32_t>(g.qubits.size()));
    for (int q : g.qubits)
        u32(static_cast<std::uint32_t>(q));
    u32(static_cast<std::uint32_t>(g.params.size()));
    for (double p : g.params)
        f64(p);
    u32(g.payload ? 1u : 0u);
    if (g.payload)
        matrix(g.payload->matrix());
}

bool
Writer::commit(const std::string &path) const
{
    std::string out = buf_;
    const std::uint64_t sum = fnv1aBytes(out.data(), out.size());
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((sum >> (8 * i)) & 0xffu));

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote =
        std::fwrite(out.data(), 1, out.size(), f) == out.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

// ---- Reader ------------------------------------------------------------

bool
Reader::slurp(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

Reader::Reader(std::string data)
    : data_(std::move(data)), end_(data_.size())
{
}

bool
Reader::verifyChecksum()
{
    if (end_ < 8)
        return false;
    const std::size_t body = end_ - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(data_[body + i]))
                  << (8 * i);
    if (stored != fnv1aBytes(data_.data(), body))
        return false;
    end_ = body;
    return true;
}

bool
Reader::bytes(void *dst, std::size_t n)
{
    if (end_ - pos_ < n)
        return false;
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
}

bool
Reader::u32(std::uint32_t &v)
{
    unsigned char b[4];
    if (!bytes(b, 4))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return true;
}

bool
Reader::u64(std::uint64_t &v)
{
    unsigned char b[8];
    if (!bytes(b, 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return true;
}

bool
Reader::i64(std::int64_t &v)
{
    std::uint64_t u;
    if (!u64(u))
        return false;
    v = static_cast<std::int64_t>(u);
    return true;
}

bool
Reader::f64(double &v)
{
    std::uint64_t bits;
    if (!u64(bits))
        return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

bool
Reader::matrix(qmath::Matrix &m)
{
    std::uint32_t rows, cols;
    if (!u32(rows) || !u32(cols))
        return false;
    if (rows > kMaxDim || cols > kMaxDim)
        return false;
    m = qmath::Matrix(static_cast<int>(rows), static_cast<int>(cols));
    for (std::uint32_t i = 0; i < rows; ++i) {
        for (std::uint32_t j = 0; j < cols; ++j) {
            double re, im;
            if (!f64(re) || !f64(im))
                return false;
            m(static_cast<int>(i), static_cast<int>(j)) = {re, im};
        }
    }
    return true;
}

bool
Reader::gate(circuit::Gate &g)
{
    std::uint32_t op, nq, np, has_payload;
    if (!u32(op))
        return false;
    if (op > static_cast<std::uint32_t>(circuit::Op::MCX))
        return false;
    g = circuit::Gate{};
    g.op = static_cast<circuit::Op>(op);
    if (!u32(nq) || nq > kMaxGateQubits)
        return false;
    g.qubits.resize(nq);
    for (std::uint32_t i = 0; i < nq; ++i) {
        std::uint32_t q;
        if (!u32(q))
            return false;
        g.qubits[i] = static_cast<int>(q);
    }
    if (!u32(np) || np > kMaxGateParams)
        return false;
    g.params.resize(np);
    for (std::uint32_t i = 0; i < np; ++i)
        if (!f64(g.params[i]))
            return false;
    if (!u32(has_payload) || has_payload > 1)
        return false;
    if (has_payload) {
        qmath::Matrix m;
        if (!matrix(m) || m.rows() != 4 || m.cols() != 4)
            return false;
        g.payload = std::make_shared<const circuit::U4Payload>(m);
    }
    return true;
}

} // namespace reqisc::service::persist
