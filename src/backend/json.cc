#include "backend/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/json_escape.hh"

namespace reqisc::backend
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    const JsonValue *found = nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            found = &v;
    return found;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind = Kind::Bool;
    v.boolean = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.kind = Kind::Number;
    v.number = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind = Kind::String;
    v.str = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.kind = Kind::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.kind = Kind::Object;
    return v;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue v)
{
    object.emplace_back(key, std::move(v));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    array.push_back(std::move(v));
    return *this;
}

const char *
JsonValue::kindName(Kind k)
{
    switch (k) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, const std::string &context)
        : text_(text), context_(context)
    {
    }

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWhitespace();
        if (pos_ < text_.size())
            fail("trailing content after the top-level value");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &msg) const
    {
        throw JsonError(context_ + ":" + std::to_string(line_) +
                        ": " + msg);
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n')
                ++line_;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char peek()
    {
        skipWhitespace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    bool consumeIf(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void expectKeyword(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("invalid literal (expected '") +
                     word + "')");
            ++pos_;
        }
    }

    JsonValue parseValue()
    {
        const char c = peek();
        JsonValue v;
        v.line = line_;
        switch (c) {
          case '{': parseObject(v); break;
          case '[': parseArray(v); break;
          case '"':
            v.kind = JsonValue::Kind::String;
            v.str = parseString();
            break;
          case 't':
            expectKeyword("true");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            break;
          case 'f':
            expectKeyword("false");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            break;
          case 'n':
            expectKeyword("null");
            v.kind = JsonValue::Kind::Null;
            break;
          default:
            if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
                parseNumber(v);
            else
                fail(std::string("unexpected character '") + c + "'");
        }
        return v;
    }

    void parseObject(JsonValue &v)
    {
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (consumeIf('}'))
            return;
        for (;;) {
            if (peek() != '"')
                fail("expected a quoted object key");
            std::string key = parseString();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            if (consumeIf(','))
                continue;
            expect('}');
            return;
        }
    }

    void parseArray(JsonValue &v)
    {
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (consumeIf(']'))
            return;
        for (;;) {
            v.array.push_back(parseValue());
            if (consumeIf(','))
                continue;
            expect(']');
            return;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\n')
                fail("unterminated string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape sequence");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': appendUtf8(out, parseCodePoint()); break;
              default:
                fail(std::string("unsupported escape '\\") + e + "'");
            }
        }
    }

    /** The 4 hex digits of a \u escape whose 'u' was just read. */
    unsigned parseHex4()
    {
        const std::string digits = text_.substr(pos_, 4);
        if (digits.size() < 4)
            fail("short escape '\\u" + digits + "'");
        unsigned v = 0;
        for (const char c : digits) {
            if (!std::isxdigit(static_cast<unsigned char>(c)))
                fail("bad hex in escape '\\u" + digits + "'");
            v = v * 16 + static_cast<unsigned>(
                             c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
        }
        pos_ += 4;
        return v;
    }

    /** One code point: a \u escape, or a UTF-16 surrogate pair. */
    unsigned parseCodePoint()
    {
        const unsigned hi = parseHex4();
        if (hi >= 0xdc00 && hi <= 0xdfff)
            fail("unpaired low surrogate '" + text_.substr(pos_ - 6, 6) +
                 "'");
        if (hi < 0xd800 || hi > 0xdbff)
            return hi;
        if (text_.compare(pos_, 2, "\\u") != 0)
            fail("unpaired high surrogate '" +
                 text_.substr(pos_ - 6, 6) + "'");
        pos_ += 2;
        const unsigned lo = parseHex4();
        if (lo < 0xdc00 || lo > 0xdfff)
            fail("unpaired high surrogate '" +
                 text_.substr(pos_ - 12, 12) + "'");
        return 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
    }

    /** UTF-8 bytes of a code point (at most U+10FFFF). */
    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
            return;
        }
        const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        static constexpr unsigned char kLead[] = {0, 0xc0, 0xe0, 0xf0};
        out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
        for (int i = tail - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f));
    }

    void parseNumber(JsonValue &v)
    {
        const size_t start = pos_;
        if (consumeIf('-')) {
        }
        auto digits = [&] {
            size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            fail("malformed number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                fail("malformed number (missing fraction digits)");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                fail("malformed number (missing exponent digits)");
        }
        v.kind = JsonValue::Kind::Number;
        v.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                               nullptr);
    }

    const std::string &text_;
    const std::string &context_;
    size_t pos_ = 0;
    int line_ = 1;
};

} // namespace

JsonValue
parseJson(const std::string &text, const std::string &context)
{
    return Parser(text, context).parseDocument();
}

namespace
{

/** %.17g, except exact doubles in the integer-safe range print as
 *  integers (stable keys like counts stay grep-able). */
std::string
formatNumber(double n)
{
    if (!std::isfinite(n))
        return "null";
    constexpr double kSafe = 9007199254740992.0;  // 2^53
    if (n == std::floor(n) && std::fabs(n) < kSafe) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(n));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", n);
    return buf;
}

void
dumpValue(const JsonValue &v, bool pretty, int depth,
          std::string &out)
{
    const auto newline = [&](int d) {
        if (!pretty)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(d) * 2, ' ');
    };
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        out += formatNumber(v.number);
        break;
      case JsonValue::Kind::String:
        out += '"';
        obs::appendJsonEscaped(out, v.str);
        out += '"';
        break;
      case JsonValue::Kind::Array:
        if (v.array.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            dumpValue(v.array[i], pretty, depth + 1, out);
        }
        newline(depth);
        out += ']';
        break;
      case JsonValue::Kind::Object:
        if (v.object.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < v.object.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += '"';
            obs::appendJsonEscaped(out, v.object[i].first);
            out += "\":";
            if (pretty)
                out += ' ';
            dumpValue(v.object[i].second, pretty, depth + 1, out);
        }
        newline(depth);
        out += '}';
        break;
    }
}

} // namespace

std::string
dumpJson(const JsonValue &v, bool pretty)
{
    std::string out;
    dumpValue(v, pretty, 0, out);
    if (pretty)
        out += '\n';
    return out;
}

} // namespace reqisc::backend
