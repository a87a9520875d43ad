#include "obs/json_escape.hh"

#include <algorithm>

namespace reqisc::obs
{

void appendToString(void *ctx, const char *data, std::size_t n)
{
    static_cast<std::string *>(ctx)->append(data, n);
}

void writeJsonEscaped(std::string_view s, ByteSink sink, void *ctx)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0;  // start of the pending verbatim run
    for (std::size_t i = 0; i < s.size(); ++i)
    {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        if (i > run)
            sink(ctx, s.data() + run, i - run);
        run = i + 1;
        char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        std::size_t n = 2;
        switch (c)
        {
        case '\n': esc[1] = 'n'; break;
        case '\r': esc[1] = 'r'; break;
        case '\t': esc[1] = 't'; break;
        case '"':
        case '\\': esc[1] = static_cast<char>(c); break;
        default: n = 6; break;
        }
        sink(ctx, esc, n);
    }
    if (s.size() > run)
        sink(ctx, s.data() + run, s.size() - run);
}

void appendJsonEscaped(std::string &out, std::string_view s)
{
    writeJsonEscaped(s, appendToString, &out);
}

std::string jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

std::size_t utf8Prefix(std::string_view s, std::size_t cap)
{
    // While the first byte cut off, s[n], continues a sequence
    // (10xxxxxx), step back onto its lead byte: at most three steps.
    std::size_t n = std::min(s.size(), cap);
    while (n < s.size() && n > 0 && cap - n < 3 &&
           (static_cast<unsigned char>(s[n]) & 0xc0) == 0x80)
        --n;
    return n;
}

} // namespace reqisc::obs
