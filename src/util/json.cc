#include "util/json.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace jetty::json
{

Value::Value(unsigned long v)
{
    if (v <= static_cast<unsigned long>(
                 std::numeric_limits<std::int64_t>::max())) {
        type_ = Type::Int;
        int_ = static_cast<std::int64_t>(v);
    } else {
        type_ = Type::Uint;
        uint_ = v;
    }
}

Value::Value(unsigned long long v)
{
    if (v <= static_cast<unsigned long long>(
                 std::numeric_limits<std::int64_t>::max())) {
        type_ = Type::Int;
        int_ = static_cast<std::int64_t>(v);
    } else {
        type_ = Type::Uint;
        uint_ = v;
    }
}

namespace
{

// 2^63 and 2^64 are exactly representable doubles; a double d is
// castable to int64 iff -2^63 <= d < 2^63, to uint64 iff 0 <= d < 2^64
// (casting outside those ranges is undefined behaviour, so every cast
// below is guarded by these bounds).
constexpr double kTwoPow63 = 9223372036854775808.0;
constexpr double kTwoPow64 = 18446744073709551616.0;

bool
isIntegralDouble(double d)
{
    return d == d && d >= -kTwoPow64 && d <= kTwoPow64 &&
           d == std::floor(d);
}

} // namespace

bool
Value::fitsI64() const
{
    switch (type_) {
      case Type::Int:
        return true;
      case Type::Uint:
        return uint_ <= static_cast<std::uint64_t>(
                            std::numeric_limits<std::int64_t>::max());
      case Type::Double:
        return isIntegralDouble(dbl_) && dbl_ >= -kTwoPow63 &&
               dbl_ < kTwoPow63;
      default:
        return false;
    }
}

bool
Value::fitsU64() const
{
    switch (type_) {
      case Type::Int:
        return int_ >= 0;
      case Type::Uint:
        return true;
      case Type::Double:
        return isIntegralDouble(dbl_) && dbl_ >= 0 && dbl_ < kTwoPow64;
      default:
        return false;
    }
}

bool
Value::asBool() const
{
    if (type_ != Type::Bool)
        panic("json: asBool on a non-bool value");
    return bool_;
}

std::int64_t
Value::asI64() const
{
    if (!fitsI64())
        panic("json: asI64 on a value outside int64 (callers gate on "
              "fitsI64)");
    switch (type_) {
      case Type::Int:
        return int_;
      case Type::Uint:
        return static_cast<std::int64_t>(uint_);
      default:
        return static_cast<std::int64_t>(dbl_);
    }
}

std::uint64_t
Value::asU64() const
{
    if (!fitsU64())
        panic("json: asU64 on a value outside uint64 (callers gate on "
              "fitsU64)");
    switch (type_) {
      case Type::Int:
        return static_cast<std::uint64_t>(int_);
      case Type::Uint:
        return uint_;
      default:
        return static_cast<std::uint64_t>(dbl_);
    }
}

double
Value::asDouble() const
{
    switch (type_) {
      case Type::Int:
        return static_cast<double>(int_);
      case Type::Uint:
        return static_cast<double>(uint_);
      case Type::Double:
        return dbl_;
      default:
        panic("json: asDouble on a non-number");
    }
}

const std::string &
Value::asString() const
{
    if (type_ != Type::String)
        panic("json: asString on a non-string value");
    return str_;
}

Value &
Value::set(const std::string &key, Value v)
{
    if (type_ != Type::Object)
        panic("json: set on a non-object value");
    for (auto &m : members_) {
        if (m.first == key) {
            m.second = std::move(v);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(v));
    return *this;
}

const Value *
Value::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &m : members_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

const std::vector<Value::Member> &
Value::members() const
{
    if (type_ != Type::Object)
        panic("json: members on a non-object value");
    return members_;
}

Value &
Value::push(Value v)
{
    if (type_ != Type::Array)
        panic("json: push on a non-array value");
    items_.push_back(std::move(v));
    return *this;
}

const std::vector<Value> &
Value::items() const
{
    if (type_ != Type::Array)
        panic("json: items on a non-array value");
    return items_;
}

std::size_t
Value::size() const
{
    if (type_ == Type::Object)
        return members_.size();
    if (type_ == Type::Array)
        return items_.size();
    return 0;
}

// ---- emission --------------------------------------------------------

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
formatDouble(double v)
{
    // Non-finite values are not JSON; the emitters never produce them,
    // so treat one as the internal error it is.
    if (!(v == v) || v > std::numeric_limits<double>::max() ||
        v < std::numeric_limits<double>::lowest()) {
        panic("json: cannot emit a non-finite number");
    }
    // The output is the shortest "%.*g" form that parses back exactly
    // ("1e+06"-style, deterministic, which is what the canonical key
    // needs). No shorter precision can round-trip than the digit count
    // of the shortest round-trip form, so start there; at a power of
    // two the correctly rounded "%.*g" of that length can still miss
    // the narrower lower half-interval, hence the check.
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::scientific);
    int prec = 0;
    for (const char *p = buf; p != res.ptr && *p != 'e'; ++p)
        prec += *p >= '0' && *p <= '9';
    for (;; ++prec) {
        res = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, prec);
        double back = 0;
        std::from_chars(buf, res.ptr, back);
        if (back == v || prec >= 17)
            break;
    }
    return std::string(buf, res.ptr);
}

void
FieldReader::fail(const std::string &field, const std::string &what)
{
    if (!err_.empty())
        return;
    const std::string at = path_.empty()   ? field
                           : field.empty() ? path_
                                           : path_ + "." + field;
    err_ = at.empty() ? what : at + ": " + what;
}

void
FieldReader::only(const Value &o, std::initializer_list<const char *> keys)
{
    if (!err_.empty())
        return;
    if (!o.isObject()) {
        fail("", "not an object");
        return;
    }
    for (const auto &m : o.members()) {
        if (std::any_of(keys.begin(), keys.end(),
                        [&m](const char *k) { return m.first == k; }))
            continue;
        std::string valid;
        for (const char *k : keys)
            valid += (valid.empty() ? "" : ", ") + std::string(k);
        fail(m.first, "unknown key (valid: " + valid + ")");
        return;
    }
}

const Value *
FieldReader::get(const Value &o, const char *key)
{
    if (!err_.empty())
        return nullptr;
    const Value *v = o.isObject() ? o.find(key) : nullptr;
    if (!v && absent_ == Absent::Fail)
        fail(key, "missing field");
    return v;
}

const Value *
FieldReader::typed(const Value &o, const char *key,
                   bool (Value::*is)() const, const char *what)
{
    const Value *v = get(o, key);
    if (v && !(v->*is)()) {
        fail(key, what);
        return nullptr;
    }
    return v;
}

bool
FieldReader::bounded(const char *key, const Value &v, std::uint64_t lo,
                     std::uint64_t hi, const char *notWhat,
                     std::uint64_t &n)
{
    if (!v.fitsU64()) {
        fail(key, notWhat);
        return false;
    }
    n = v.asU64();
    if (n < lo || n > hi) {
        fail(key, std::to_string(n) + " is out of range (valid: " +
                      std::to_string(lo) + ".." + std::to_string(hi) +
                      ")");
        return false;
    }
    return true;
}

void
FieldReader::u64(const Value &o, const char *key, std::uint64_t &out,
                 std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t n = 0;
    if (const Value *v = get(o, key);
        v && bounded(key, *v, lo, hi, "not a u64", n))
        out = n;
}

void
FieldReader::u32(const Value &o, const char *key, unsigned &out,
                 std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t n = out;
    u64(o, key, n, lo,
        std::min<std::uint64_t>(hi, std::numeric_limits<unsigned>::max()));
    out = static_cast<unsigned>(n);
}

void
FieldReader::dbl(const Value &o, const char *key, double &out)
{
    if (const Value *v = typed(o, key, &Value::isNumber, "not a number"))
        out = v->asDouble();
}

void
FieldReader::boolean(const Value &o, const char *key, bool &out)
{
    if (const Value *v = typed(o, key, &Value::isBool, "not a bool"))
        out = v->asBool();
}

void
FieldReader::str(const Value &o, const char *key, std::string &out)
{
    if (const Value *v = typed(o, key, &Value::isString, "not a string"))
        out = v->asString();
}

void
FieldReader::strVector(const Value &o, const char *key,
                       std::vector<std::string> &out)
{
    const Value *v = arr(o, key);
    if (!v)
        return;
    std::vector<std::string> items;
    for (const auto &item : v->items()) {
        if (!item.isString()) {
            fail(key, "holds a non-string element");
            return;
        }
        items.push_back(item.asString());
    }
    out = std::move(items);
}

bool
FieldReader::uints(const Value &o, const char *key, std::uint64_t lo,
                   std::uint64_t hi, std::vector<std::uint64_t> &out)
{
    const Value *v = arr(o, key);
    if (!v)
        return false;
    std::vector<std::uint64_t> items;
    for (const auto &item : v->items()) {
        std::uint64_t n = 0;
        if (!bounded(key, item, lo, hi, "holds a non-u64 element", n))
            return false;
        items.push_back(n);
    }
    out = std::move(items);
    return true;
}

void
FieldReader::u64Vector(const Value &o, const char *key,
                       std::vector<std::uint64_t> &out)
{
    uints(o, key, 0, std::numeric_limits<std::uint64_t>::max(), out);
}

void
FieldReader::u32Vector(const Value &o, const char *key,
                       std::vector<unsigned> &out, std::uint64_t lo,
                       std::uint64_t hi)
{
    std::vector<std::uint64_t> items;
    if (!uints(o, key, lo,
               std::min<std::uint64_t>(
                   hi, std::numeric_limits<unsigned>::max()),
               items))
        return;
    if (items.empty())
        fail(key, "is empty");
    else
        out.assign(items.begin(), items.end());
}

const Value *
FieldReader::arr(const Value &o, const char *key)
{
    return typed(o, key, &Value::isArray, "not an array");
}

const Value *
FieldReader::obj(const Value &o, const char *key)
{
    return typed(o, key, &Value::isObject, "not an object");
}

void
Value::write(std::string &out, int indent, bool compact,
             bool sortKeys) const
{
    const auto pad = [&out](int depth) {
        out.append(static_cast<std::size_t>(depth) * 2, ' ');
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        out += std::to_string(int_);
        break;
      case Type::Uint:
        out += std::to_string(uint_);
        break;
      case Type::Double:
        out += formatDouble(dbl_);
        break;
      case Type::String:
        out += '"';
        out += escape(str_);
        out += '"';
        break;
      case Type::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            if (!compact) {
                out += '\n';
                pad(indent + 1);
            }
            items_[i].write(out, indent + 1, compact, sortKeys);
        }
        if (!compact) {
            out += '\n';
            pad(indent);
        }
        out += ']';
        break;
      case Type::Object: {
        if (members_.empty()) {
            out += "{}";
            break;
        }
        std::vector<const Member *> order;
        order.reserve(members_.size());
        for (const auto &m : members_)
            order.push_back(&m);
        if (sortKeys) {
            std::sort(order.begin(), order.end(),
                      [](const Member *a, const Member *b) {
                          return a->first < b->first;
                      });
        }
        out += '{';
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (i)
                out += ',';
            if (!compact) {
                out += '\n';
                pad(indent + 1);
            }
            out += '"';
            out += escape(order[i]->first);
            out += compact ? "\":" : "\": ";
            order[i]->second.write(out, indent + 1, compact, sortKeys);
        }
        if (!compact) {
            out += '\n';
            pad(indent);
        }
        out += '}';
        break;
      }
    }
}

std::string
Value::dump() const
{
    std::string out;
    write(out, 0, false, false);
    out += '\n';
    return out;
}

std::string
Value::dumpCanonical() const
{
    std::string out;
    write(out, 0, true, true);
    return out;
}

std::string
Value::dumpCompact() const
{
    std::string out;
    write(out, 0, true, false);
    return out;
}

// ---- parsing ---------------------------------------------------------

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {}

    Value
    run()
    {
        Value v = parseValue();
        if (failed_)
            return Value();
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after the JSON value");
            return Value();
        }
        return v;
    }

  private:
    void
    fail(const std::string &what)
    {
        if (failed_)
            return;
        failed_ = true;
        if (err_)
            *err_ = "line " + std::to_string(line_) + ": " + what;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n')
                ++line_;
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return Value();
        }
        // Recursion guard: a hostile deeply-nested document must fail
        // with a parse error, not blow the stack. 256 is far beyond any
        // spec/report while keeping worst-case stack use trivial.
        if (depth_ >= kMaxDepth) {
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
            return Value();
        }
        const char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return Value(parseString());
          case 't':
          case 'f':
            return parseKeyword();
          case 'n':
            if (text_.compare(pos_, 4, "null") == 0) {
                pos_ += 4;
                return Value();
            }
            fail("unrecognized keyword");
            return Value();
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail(std::string("unexpected character '") + c + "'");
            return Value();
        }
    }

    Value
    parseKeyword()
    {
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return Value(true);
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return Value(false);
        }
        fail("unrecognized keyword");
        return Value();
    }

    Value
    parseObject()
    {
        ++pos_;  // '{'
        ++depth_;
        Value obj = Value::object();
        skipWs();
        if (consume('}')) {
            --depth_;
            return obj;
        }
        while (!failed_) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected a quoted object key");
                break;
            }
            const std::string key = parseString();
            if (failed_)
                break;
            if (!consume(':')) {
                fail("expected ':' after object key \"" + key + "\"");
                break;
            }
            if (obj.find(key)) {
                fail("duplicate object key \"" + key + "\"");
                break;
            }
            obj.set(key, parseValue());
            if (failed_)
                break;
            if (consume(','))
                continue;
            if (consume('}')) {
                --depth_;
                return obj;
            }
            fail("expected ',' or '}' in object");
        }
        return Value();
    }

    Value
    parseArray()
    {
        ++pos_;  // '['
        ++depth_;
        Value arr = Value::array();
        skipWs();
        if (consume(']')) {
            --depth_;
            return arr;
        }
        while (!failed_) {
            arr.push(parseValue());
            if (failed_)
                break;
            if (consume(','))
                continue;
            if (consume(']')) {
                --depth_;
                return arr;
            }
            fail("expected ',' or ']' in array");
        }
        return Value();
    }

    /** Append @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseHex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return false;
        }
        pos_ += 4;
        return true;
    }

    std::string
    parseString()
    {
        ++pos_;  // opening quote
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
                return "";
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(cp)) {
                    fail("bad \\u escape in string");
                    return "";
                }
                // Surrogate pair?
                if (cp >= 0xd800 && cp <= 0xdbff &&
                    pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
                    text_[pos_ + 1] == 'u') {
                    pos_ += 2;
                    unsigned lo = 0;
                    if (!parseHex4(lo) || lo < 0xdc00 || lo > 0xdfff) {
                        fail("bad surrogate pair in string");
                        return "";
                    }
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail(std::string("unknown escape '\\") + esc + "'");
                return "";
            }
        }
        fail("unterminated string");
        return "";
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string tok = text_.substr(start, pos_ - start);
        errno = 0;
        char *end = nullptr;
        if (integral) {
            if (tok[0] == '-') {
                const long long v = std::strtoll(tok.c_str(), &end, 10);
                if (end == tok.c_str() + tok.size() && errno != ERANGE)
                    return Value(v);
            } else {
                const unsigned long long v =
                    std::strtoull(tok.c_str(), &end, 10);
                if (end == tok.c_str() + tok.size() && errno != ERANGE)
                    return Value(v);
            }
            errno = 0;  // overflowed an integer: fall through to double
        }
        end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || errno == ERANGE) {
            fail("malformed number '" + tok + "'");
            return Value();
        }
        return Value(v);
    }

    static constexpr unsigned kMaxDepth = 256;

    const std::string &text_;
    std::string *err_;
    std::size_t pos_ = 0;
    unsigned line_ = 1;
    unsigned depth_ = 0;
    bool failed_ = false;
};

} // namespace

Value
parse(const std::string &text, std::string *err)
{
    if (err)
        err->clear();
    return Parser(text, err).run();
}

Value
parseFile(const std::string &path, std::string *err)
{
    if (err)
        err->clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = "cannot open '" + path + "'";
        return Value();
    }
    std::string text;
    char buf[64 * 1024];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        if (err)
            *err = "read error on '" + path + "'";
        return Value();
    }
    return parse(text, err);
}

void
writeFile(const std::string &path, const Value &v)
{
    const std::string why = writeFileErr(path, v);
    if (!why.empty())
        fatal("json: " + why);
}

std::string
writeFileErr(const std::string &path, const Value &v)
{
    return util::writeFileAtomicErr(path, v.dump());
}

} // namespace jetty::json
