#include "service/persist.hh"

#include <bit>
#include <cstdio>

#include "obs/obs.hh"

namespace reqisc::service::persist
{

namespace
{

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Sanity caps applied while parsing: a corrupted count field must
// fail the read, not drive a multi-gigabyte allocation.
constexpr std::uint64_t kMaxEntries = 1ull << 22;
constexpr std::uint32_t kMaxDim = 256;
constexpr std::uint32_t kMaxGateQubits = 8;
constexpr std::uint32_t kMaxGateParams = 16;

/** Append the low `n` bytes of `v`, least significant first. */
void
putLE(std::string &buf, std::uint64_t v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

/** The `n`-byte little-endian value at `p`. */
std::uint64_t
getLE(const char *p, std::size_t n)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    return v;
}

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
    putLE(buf_, v, 4);
}

void
Writer::u64(std::uint64_t v)
{
    putLE(buf_, v, 8);
}

void
Writer::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
Writer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
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

void
Writer::append(const Writer &tail)
{
    buf_ += tail.buf_;
}

bool
Writer::commit(const std::string &path) const
{
    std::string out = buf_;
    putLE(out, fnv1aBytes(out.data(), out.size()), 8);

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
    if (getLE(data_.data() + body, 8) != fnv1aBytes(data_.data(), body))
        return false;
    end_ = body;
    return true;
}

bool
Reader::le(std::uint64_t &v, std::size_t n)
{
    if (end_ - pos_ < n)
        return false;
    v = getLE(data_.data() + pos_, n);
    pos_ += n;
    return true;
}

bool
Reader::u32(std::uint32_t &v)
{
    std::uint64_t w;
    if (!le(w, 4))
        return false;
    v = static_cast<std::uint32_t>(w);
    return true;
}

bool
Reader::u64(std::uint64_t &v)
{
    return le(v, 8);
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
    v = std::bit_cast<double>(bits);
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

// ---- The file envelope -------------------------------------------------

bool
save(const std::string &path, const Format &fmt,
     const std::function<std::size_t(Writer &)> &entries)
{
    obs::Span span(std::string("persist:") + fmt.kind + "-save");
    Writer body;
    const std::size_t count = entries(body);
    Writer w;
    w.u32(fmt.magic);
    w.u32(fmt.version);
    for (double field : fmt.header)
        w.f64(field);
    w.u64(count);
    w.append(body);
    const bool ok = w.commit(path);
    const std::string cache = std::string(fmt.kind) + " cache ";
    obs::log(ok ? obs::LogLevel::Info : obs::LogLevel::Warn, "persist",
             cache + (ok ? "saved" : "save failed"),
             {{"path", path}, {"entries", std::to_string(count)}});
    return ok;
}

bool
load(const std::string &path, const Format &fmt,
     const std::function<bool(Reader &)> &entry,
     const std::function<void()> &merge)
{
    obs::Span span(std::string("persist:") + fmt.kind + "-load");
    const std::string cache = std::string(fmt.kind) + " cache ";
    const auto coldStart = [&](obs::LogLevel level, const char *why) {
        obs::log(level, "persist", cache + why + "; cold start",
                 {{"path", path}});
        return false;
    };
    std::string data;
    if (!Reader::slurp(path, data))
        return coldStart(obs::LogLevel::Debug, "file absent");
    Reader r(std::move(data));
    if (!r.verifyChecksum())
        return coldStart(obs::LogLevel::Warn, "rejected: bad checksum");
    std::uint32_t magic, version;
    if (!r.u32(magic) || magic != fmt.magic || !r.u32(version) ||
        version != fmt.version)
        return coldStart(obs::LogLevel::Warn,
                         "rejected: format mismatch");
    for (double want : fmt.header) {
        std::uint64_t bits;  // bit for bit, not ==
        if (!r.u64(bits) || bits != std::bit_cast<std::uint64_t>(want))
            return false;
    }
    // Entries are read one call at a time, so a count the bytes
    // cannot hold fails at the first short read, having sized nothing.
    std::uint64_t count;
    if (!r.u64(count) || count > kMaxEntries)
        return false;
    for (std::uint64_t i = 0; i < count; ++i)
        if (!entry(r))
            return false;
    if (r.remaining() != 0)
        return false;
    merge();
    obs::log(obs::LogLevel::Info, "persist", cache + "loaded",
             {{"path", path}, {"entries", std::to_string(count)}});
    return true;
}

} // namespace reqisc::service::persist
