/**
 * @file
 * Minimal self-contained JSON tree, writer and parser — the one
 * serialization layer behind the ExperimentSpec / Report API (src/api)
 * and every JSON file the tools and benches emit. No external
 * dependencies.
 *
 * Design points that matter to the API layer:
 *  - Objects preserve *insertion order* on emission (specs and reports
 *    read top-down), but dumpCanonical() sorts keys and strips
 *    whitespace, so two trees holding the same data always canonicalize
 *    to the same bytes — that string is what the RunCache keys on.
 *  - Numbers remember whether they were integers; doubles are formatted
 *    with the shortest representation that round-trips exactly, so
 *    parse -> emit -> parse is the identity.
 *  - Strings are escaped on output (quotes, backslashes, control
 *    characters) — the fix for the hand-rolled fprintf emitters this
 *    module replaces, which escaped nothing.
 */

#ifndef JETTY_UTIL_JSON_HH
#define JETTY_UTIL_JSON_HH

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace jetty::json
{

/** Discriminator of a Value. Int/Uint/Double all answer isNumber(). */
enum class Type : std::uint8_t
{
    Null,
    Bool,
    Int,     //!< fits a signed 64-bit integer (and was written as one)
    Uint,    //!< unsigned 64-bit integer beyond int64 range
    Double,
    String,
    Array,
    Object,
};

/** One JSON value: a tagged tree node. */
class Value
{
  public:
    using Member = std::pair<std::string, Value>;

    Value() : type_(Type::Null) {}
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(int v) : type_(Type::Int), int_(v) {}
    Value(unsigned v) : type_(Type::Int), int_(v) {}
    Value(long v) : type_(Type::Int), int_(v) {}
    Value(long long v) : type_(Type::Int), int_(v) {}
    Value(unsigned long v);
    Value(unsigned long long v);
    Value(double v) : type_(Type::Double), dbl_(v) {}
    Value(const char *s) : type_(Type::String), str_(s) {}
    Value(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Value array() { return Value(Type::Array); }
    static Value object() { return Value(Type::Object); }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Uint ||
               type_ == Type::Double;
    }
    /** An integral number representable as int64 / uint64 — the guards
     *  validating readers check before calling asI64()/asU64() (casting
     *  an out-of-range double would be undefined behaviour). */
    bool fitsI64() const;
    bool fitsU64() const;
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Scalar readers; panic() on a type mismatch (callers validate). */
    bool asBool() const;
    std::int64_t asI64() const;
    std::uint64_t asU64() const;  //!< panics when negative
    double asDouble() const;
    const std::string &asString() const;

    // ---- object interface ----
    /** Append @p key (or replace its existing value); returns *this so
     *  builders chain. Panics on non-objects. */
    Value &set(const std::string &key, Value v);
    /** Member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;
    const std::vector<Member> &members() const;

    // ---- array interface ----
    Value &push(Value v);  //!< append; panics on non-arrays
    const std::vector<Value> &items() const;

    /** Members (object), items (array), or 0. */
    std::size_t size() const;

    /** Pretty emission: two-space indent, insertion-order keys,
     *  trailing newline. */
    std::string dump() const;

    /** Canonical emission: keys sorted bytewise, no whitespace. Two
     *  trees holding the same data produce identical bytes — the
     *  RunCache key property. */
    std::string dumpCanonical() const;

    /** Compact emission: no whitespace, no trailing newline, but keys
     *  in *insertion order* (unlike dumpCanonical). One value per line
     *  — the newline-delimited serve wire framing; parse(dumpCompact())
     *  rebuilds the identical tree, so a report relayed through the
     *  wire still dump()s to the exact bytes the producer would have
     *  written. */
    std::string dumpCompact() const;

  private:
    explicit Value(Type t) : type_(t) {}

    void write(std::string &out, int indent, bool compact,
               bool sortKeys) const;

    Type type_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double dbl_ = 0;
    std::string str_;
    std::vector<Value> items_;
    std::vector<Member> members_;
};

/**
 * The one validating reader for untrusted documents (specs, disk-tier
 * entries, wire messages): each accessor reads one member of an object
 * and records the first failure as "<path>.<field>: <what>"; every
 * later access is then a no-op, so call sites stay linear and report
 * only the first problem. @p out arguments are left untouched on
 * failure, and no input makes an accessor panic.
 */
class FieldReader
{
  public:
    /** How an absent member reads: a failure ("missing field"), or
     *  a no-op that leaves @p out at its default. */
    enum class Absent { Fail, Keep };

    explicit FieldReader(std::string path, Absent absent = Absent::Fail)
        : path_(std::move(path)), absent_(absent)
    {
    }

    bool ok() const { return err_.empty(); }

    /** "" or the first failure. */
    const std::string &error() const { return err_; }

    /** Record "<path>.<field>: <what>" unless a failure is recorded
     *  (an empty path or field drops out of the dotted name). */
    void fail(const std::string &field, const std::string &what);

    /** Fail unless @p o is an object whose members all appear in
     *  @p keys: "<path>.<member>: unknown key (valid: a, b, c)". */
    void only(const Value &o, std::initializer_list<const char *> keys);

    /** Member @p key of @p o; nullptr when absent (failing unless the
     *  reader keeps absent members) or after a failure. */
    const Value *get(const Value &o, const char *key);

    /** Unsigned integer member in [@p lo, @p hi]; out of range fails
     *  "N is out of range (valid: lo..hi)". */
    void u64(const Value &o, const char *key, std::uint64_t &out,
             std::uint64_t lo = 0,
             std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());
    void u32(const Value &o, const char *key, unsigned &out,
             std::uint64_t lo, std::uint64_t hi);
    void dbl(const Value &o, const char *key, double &out);
    void boolean(const Value &o, const char *key, bool &out);
    void str(const Value &o, const char *key, std::string &out);
    void strVector(const Value &o, const char *key,
                   std::vector<std::string> &out);
    void u64Vector(const Value &o, const char *key,
                   std::vector<std::uint64_t> &out);
    /** A non-empty list of unsigned integers, each in [@p lo, @p hi]. */
    void u32Vector(const Value &o, const char *key,
                   std::vector<unsigned> &out, std::uint64_t lo,
                   std::uint64_t hi);

    /** Member @p key as an array / object; nullptr when it is absent
     *  (see get()) or of another type (failing). */
    const Value *arr(const Value &o, const char *key);
    const Value *obj(const Value &o, const char *key);

    /** Read object member @p key with @p read(member), naming failures
     *  inside it "<path>.<key>.<field>"; absent: see get(). */
    template <class Read>
    void nested(const Value &o, const char *key, Read &&read)
    {
        const Value *v = obj(o, key);
        if (!v)
            return;
        const std::string outer = path_;
        path_ = memberPath(key);
        read(*v);
        path_ = outer;
    }

    /** Read each item of array member @p key with @p read(item), up to
     *  the first failure, naming failures inside item i
     *  "<path>.<key>[i].<field>" (an item that is not an object fails
     *  "<path>.<key>[i]: not an object"); absent: see get(). */
    template <class Read>
    void items(const Value &o, const char *key, Read &&read)
    {
        const Value *a = arr(o, key);
        if (!a)
            return;
        const std::string outer = path_;
        const std::string base = memberPath(key);
        for (std::size_t i = 0; i < a->items().size() && ok(); ++i) {
            path_ = base + "[" + std::to_string(i) + "]";
            if (a->items()[i].isObject())
                read(a->items()[i]);
            else
                fail("", "not an object");
        }
        path_ = outer;
    }

  private:
    /** "<path>.<key>", or @p key alone under an empty path. */
    std::string
    memberPath(const char *key) const
    {
        return path_.empty() ? key : path_ + "." + key;
    }

    /** get(), failing with @p what unless (member->*is)(). */
    const Value *typed(const Value &o, const char *key,
                       bool (Value::*is)() const, const char *what);

    /** @p v as an integer in [@p lo, @p hi] into @p n; otherwise fail
     *  at @p key with @p notWhat or the range. */
    bool bounded(const char *key, const Value &v, std::uint64_t lo,
                 std::uint64_t hi, const char *notWhat, std::uint64_t &n);

    /** Array member @p key of integers in [@p lo, @p hi] into @p out.
     *  @return false when absent or failing. */
    bool uints(const Value &o, const char *key, std::uint64_t lo,
               std::uint64_t hi, std::vector<std::uint64_t> &out);

    std::string path_;
    Absent absent_;
    std::string err_;
};

/** Escape @p s for inclusion between JSON quotes. */
std::string escape(const std::string &s);

/** Shortest decimal form of @p v that strtod() parses back exactly. */
std::string formatDouble(double v);

/**
 * Parse @p text into a tree.
 * @param err on failure receives "line L: what went wrong"; the
 *            returned Value is then null.
 * @return the parsed value (trailing garbage is an error).
 */
Value parse(const std::string &text, std::string *err);

/** Read and parse @p path. @p err receives the failure ("" on
 *  success); the file-not-found case is reported there too. */
Value parseFile(const std::string &path, std::string *err);

/** Write @p v (pretty) to @p path atomically (util/atomic_file.hh:
 *  temp-file + fsync + rename, so a crash or full disk never leaves a
 *  torn document at @p path); fatal() on I/O failure. */
void writeFile(const std::string &path, const Value &v);

/** As writeFile(), but returns the failure description ("" on success)
 *  instead of fatal()ing — for best-effort writers like the disk
 *  cache. */
std::string writeFileErr(const std::string &path, const Value &v);

} // namespace jetty::json

#endif // JETTY_UTIL_JSON_HH
