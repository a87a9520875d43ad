/**
 * @file
 * Minimal JSON reader/writer: chip description files on the way in,
 * every --json summary and daemon wire response on the way out
 * (built as JsonValue trees and serialized by dumpJson).
 *
 * Hand-rolled on purpose: the container build must not grow
 * third-party dependencies. Supports the JSON value grammar (objects, arrays,
 * strings with every escape, numbers, true/false/null) and
 * tracks the source line of every value so schema validation can
 * report `file:line: field ...` errors (tests/test_backend.cc pins
 * the error paths).
 *
 * \uXXXX escapes decode to UTF-8, surrogate pairs included. Not a
 * general-purpose library: no duplicate-key detection (the last key
 * wins on lookup), numbers are parsed as double.
 */

#ifndef REQISC_BACKEND_JSON_HH
#define REQISC_BACKEND_JSON_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace reqisc::backend
{

/** Parse or schema error, already carrying "file:line:" context. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** One parsed JSON value (a small tagged tree). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Key order is preserved (useful for deterministic errors). */
    std::vector<std::pair<std::string, JsonValue>> object;
    /** 1-based source line where this value starts. */
    int line = 0;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent (last key wins). */
    const JsonValue *find(const std::string &key) const;

    static const char *kindName(Kind k);

    // ----- Builders (the emit-side tree constructors) -------------------
    // Every JSON document the repo writes (CLI --json, the daemon's
    // wire responses, bench summaries) is assembled as a JsonValue
    // tree and serialized by dumpJson, so there is exactly one
    // emitter to keep correct.
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray();
    static JsonValue makeObject();

    /** Append an object member (no duplicate-key check; see @file). */
    JsonValue &set(const std::string &key, JsonValue v);
    /** Append an array element. */
    JsonValue &push(JsonValue v);
};

/**
 * Parse a complete JSON document. `context` (typically the file
 * name) prefixes every error message: "<context>:<line>: ...".
 * Trailing non-whitespace after the top-level value is an error.
 */
JsonValue parseJson(const std::string &text,
                    const std::string &context = "<json>");

/**
 * Serialize a JsonValue tree. Numbers that hold an exact integer in
 * the double-safe range print without a decimal point; everything
 * else uses %.17g (round-trip exact through parseJson). Non-finite
 * numbers (no JSON spelling) serialize as null. `pretty` indents
 * with two spaces per level; compact output has no whitespace.
 */
std::string dumpJson(const JsonValue &v, bool pretty = false);

} // namespace reqisc::backend

#endif // REQISC_BACKEND_JSON_HH
