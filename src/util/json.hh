/**
 * @file
 * The one JSON (de)serializer of the tree.
 *
 * Every JSON artifact the simulator emits — run reports (`slip-sim
 * --report`, `slip-bench --report-dir`), `slip-bench --profile`,
 * trace files, the NDJSON status stream — is built as a json::Value
 * tree and written through Value::write (or writeCompact), so
 * formatting rules live in exactly one place:
 *
 *  - object keys are emitted in sorted order (std::map), making every
 *    artifact byte-deterministic and diffable across runs and refs;
 *  - doubles use the shortest representation that round-trips, so
 *    `0.6` prints as `0.6`, not `0.59999999999999998`;
 *  - two-space indentation, `"key": value` spacing, trailing newline
 *    left to the caller.
 *
 * A small recursive-descent parser (Value::parse) covers the subset we
 * emit; tools/trace_report, tools/slip_report and the schema tests use
 * it to read our own artifacts back. It is not a general-purpose
 * validating parser.
 */

#ifndef SLIP_UTIL_JSON_HH
#define SLIP_UTIL_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace slip {
namespace json {

/** One JSON value (object keys kept sorted). */
class Value
{
  public:
    enum class Kind {
        Null,
        Bool,
        Int,
        UInt,
        Double,
        String,
        Array,
        Object,
    };

    Value() : _kind(Kind::Null) {}
    Value(bool b) : _kind(Kind::Bool), _b(b) {}
    Value(int v) : _kind(Kind::Int), _i(v) {}
    Value(long v) : _kind(Kind::Int), _i(v) {}
    Value(long long v) : _kind(Kind::Int), _i(v) {}
    Value(unsigned v) : _kind(Kind::UInt), _u(v) {}
    Value(unsigned long v) : _kind(Kind::UInt), _u(v) {}
    Value(unsigned long long v) : _kind(Kind::UInt), _u(v) {}
    Value(double v) : _kind(Kind::Double), _d(v) {}
    Value(const char *s) : _kind(Kind::String), _s(s) {}
    Value(std::string s) : _kind(Kind::String), _s(std::move(s)) {}

    static Value object() { Value v; v._kind = Kind::Object; return v; }
    static Value array() { Value v; v._kind = Kind::Array; return v; }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isString() const { return _kind == Kind::String; }
    bool isNumber() const
    {
        return _kind == Kind::Int || _kind == Kind::UInt ||
               _kind == Kind::Double;
    }

    /** Object member access; creates the member (converts to Object). */
    Value &operator[](const std::string &key);

    /** Append to an array (converts to Array). */
    void push(Value v);

    /** Object member lookup; null when absent or not an object. */
    const Value *find(const std::string &key) const;

    const std::map<std::string, Value> &members() const { return _obj; }
    const std::vector<Value> &elements() const { return _arr; }
    std::size_t size() const
    {
        return isObject() ? _obj.size() : _arr.size();
    }

    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    std::int64_t asI64(std::int64_t fallback = 0) const;
    const std::string &asString() const { return _s; }

    /** Serialize (sorted keys, shortest round-trip doubles). */
    void write(std::ostream &os, unsigned indent = 0) const;
    std::string dump() const;

    /**
     * Serialize on one line with no whitespace (same key order and
     * double formatting as write). This is the NDJSON emission path:
     * one event per line, parseable back by Value::parse.
     */
    void writeCompact(std::ostream &os) const;
    std::string dumpCompact() const;

    /**
     * Parse @p text into @p out. Returns false (with a message in
     * @p err when given) on malformed input or trailing garbage.
     */
    static bool parse(const std::string &text, Value &out,
                      std::string *err = nullptr);

  private:
    Kind _kind;
    bool _b = false;
    std::int64_t _i = 0;
    std::uint64_t _u = 0;
    double _d = 0.0;
    std::string _s;
    std::vector<Value> _arr;
    std::map<std::string, Value> _obj;
};

/** Shortest decimal form of @p v that parses back to exactly @p v. */
std::string formatDouble(double v);

/** @p s with JSON string escaping applied (no surrounding quotes). */
std::string escape(const std::string &s);

} // namespace json
} // namespace slip

#endif // SLIP_UTIL_JSON_HH
