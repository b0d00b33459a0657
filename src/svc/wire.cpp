#include "svc/wire.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "svc/schema.h"

namespace wrpt::svc {

namespace {

// --- minimal JSON value model + recursive-descent parser --------------------

struct jvalue {
    enum kind_t { null_v, bool_v, num_v, str_v, arr_v, obj_v };
    kind_t kind = null_v;
    bool b = false;
    double num = 0.0;
    std::uint64_t unum = 0;   // exact value for unsigned integer literals
    bool has_unum = false;
    std::string str;
    std::vector<jvalue> arr;
    std::vector<std::pair<std::string, jvalue>> obj;

    const jvalue* find(std::string_view key) const {
        for (const auto& [k, v] : obj)
            if (k == key) return &v;
        return nullptr;
    }
};

class parser {
public:
    // A view, not a string: decode paths parse straight out of the
    // caller's buffer (connection inbuf, bench transcript) with no copy.
    explicit parser(std::string_view text)
        : p_(text.data()), end_(text.data() + text.size()) {}

    jvalue parse() {
        jvalue v = value();
        skip_ws();
        if (p_ != end_) fail("trailing characters after JSON value");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw wire_error("wire: " + why);
    }

    void skip_ws() {
        while (p_ != end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n'))
            ++p_;
    }

    char peek() {
        skip_ws();
        if (p_ == end_) fail("unexpected end of input");
        return *p_;
    }

    void expect(char c) {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + *p_ + "'");
        ++p_;
    }

    bool consume(char c) {
        skip_ws();
        if (p_ != end_ && *p_ == c) {
            ++p_;
            return true;
        }
        return false;
    }

    // A long-lived daemon must answer a hostile line with an error
    // envelope, not a blown stack: cap the recursion depth far above any
    // legitimate request shape (matrix responses nest three levels).
    static constexpr int max_depth = 64;

    jvalue value() {
        if (depth_ >= max_depth) fail("nesting deeper than 64 levels");
        ++depth_;
        jvalue v;
        switch (peek()) {
            case '{': v = object(); break;
            case '[': v = array(); break;
            case '"': v = string_value(); break;
            case 't': case 'f': v = boolean(); break;
            case 'n': v = null_value(); break;
            default: v = number(); break;
        }
        --depth_;
        return v;
    }

    jvalue object() {
        expect('{');
        jvalue v;
        v.kind = jvalue::obj_v;
        if (consume('}')) return v;
        do {
            jvalue key = string_value();
            expect(':');
            v.obj.emplace_back(std::move(key.str), value());
        } while (consume(','));
        expect('}');
        return v;
    }

    jvalue array() {
        expect('[');
        jvalue v;
        v.kind = jvalue::arr_v;
        if (consume(']')) return v;
        do {
            v.arr.push_back(value());
        } while (consume(','));
        expect(']');
        return v;
    }

    jvalue string_value() {
        expect('"');
        jvalue v;
        v.kind = jvalue::str_v;
        while (true) {
            if (p_ == end_) fail("unterminated string");
            const char c = *p_++;
            if (c == '"') break;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                v.str.push_back(c);
                continue;
            }
            if (p_ == end_) fail("unterminated escape");
            const char e = *p_++;
            switch (e) {
                case '"': v.str.push_back('"'); break;
                case '\\': v.str.push_back('\\'); break;
                case '/': v.str.push_back('/'); break;
                case 'b': v.str.push_back('\b'); break;
                case 'f': v.str.push_back('\f'); break;
                case 'n': v.str.push_back('\n'); break;
                case 'r': v.str.push_back('\r'); break;
                case 't': v.str.push_back('\t'); break;
                case 'u': v.str += unicode_escape(); break;
                default: fail("bad escape character");
            }
        }
        return v;
    }

    unsigned hex4() {
        if (end_ - p_ < 4) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = *p_++;
            code <<= 4;
            if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else fail("bad \\u escape digit");
        }
        return code;
    }

    std::string unicode_escape() {
        // The encoder only emits \u00XX for control characters, but
        // accept the full range — including surrogate pairs, which must
        // combine into one code point (raw CESU-8 would poison every
        // later response with invalid UTF-8).
        unsigned code = hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u')
                fail("unpaired high surrogate in \\u escape");
            p_ += 2;
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("bad low surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
        }
        std::string out;
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        return out;
    }

    jvalue boolean() {
        jvalue v;
        v.kind = jvalue::bool_v;
        if (end_ - p_ >= 4 && std::string_view(p_, 4) == "true") {
            v.b = true;
            p_ += 4;
        } else if (end_ - p_ >= 5 && std::string_view(p_, 5) == "false") {
            v.b = false;
            p_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    jvalue null_value() {
        if (end_ - p_ < 4 || std::string_view(p_, 4) != "null")
            fail("bad literal");
        p_ += 4;
        jvalue v;
        v.kind = jvalue::null_v;
        return v;
    }

    jvalue number() {
        const char* start = p_;
        if (p_ != end_ && *p_ == '-') ++p_;
        while (p_ != end_ &&
               ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
                *p_ == 'E' || *p_ == '+' || *p_ == '-'))
            ++p_;
        if (p_ == start) fail("expected a value");
        jvalue v;
        v.kind = jvalue::num_v;
        const auto [dp, derr] = std::from_chars(start, p_, v.num);
        if (derr != std::errc{} || dp != p_ || !std::isfinite(v.num))
            fail("bad number (non-finite values are not representable)");
        // Keep the exact value of unsigned integer literals (revision
        // stamps, seeds, SIZE_MAX-style sentinels exceed 2^53).
        if (*start != '-') {
            std::uint64_t u = 0;
            const auto [up, uerr] = std::from_chars(start, p_, u);
            if (uerr == std::errc{} && up == p_) {
                v.unum = u;
                v.has_unum = true;
            }
        }
        return v;
    }

    const char* p_;
    const char* end_;
    int depth_ = 0;
};

[[noreturn]] void bad(const std::string& why) { throw wire_error("wire: " + why); }

// --- canonical encoder ------------------------------------------------------

void put_escaped(std::string& out, std::string_view s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void put_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    const auto [p, err] = std::to_chars(buf, buf + sizeof buf, v);
    (void)err;
    out.append(buf, p);
}

void put_double(std::string& out, double v) {
    if (!std::isfinite(v))
        bad("cannot encode non-finite number");
    // Shortest representation that round-trips exactly; integral values
    // print without an exponent or trailing ".0", matching the parser's
    // unsigned-integer fast path.
    char buf[32];
    const auto [p, err] = std::to_chars(buf, buf + sizeof buf, v);
    (void)err;
    out.append(buf, p);
}

/// Writes a payload's fields in description order (schema.h), inserting
/// the comma separators. Appends to `out` without clearing it, so callers
/// reuse one buffer across encodes and nested objects need no temporaries.
class encoder {
public:
    explicit encoder(std::string& out) : out_(out) {}

    template <class T>
    void operator()(std::string_view key, const T& m) {
        put_key(key);
        value(m);
    }

    template <class T>
    void operator()(std::string_view key, const T& m, omit_empty_t) {
        if (!empty_field(m)) (*this)(key, m);
    }

    void operator()(std::string_view key, const bool& m, true_unless_sent) {
        (*this)(key, m);
    }

    template <class K, std::size_t N>
    void operator()(std::string_view key, const K& m,
                    const kind_names<N>& kinds) {
        const std::size_t i = kind_index(m);
        if (i >= N) bad("bad " + std::string(kinds.noun) + " kind");
        put_key(key);
        put_escaped(out_, kinds.names[i]);
    }

    template <class F>
    void group(std::string_view key, F&& list) {
        put_key(key);
        object(list);
    }

    template <class T>
    void value(const T& m) {
        if constexpr (std::is_same_v<T, std::string>) {
            put_escaped(out_, m);
        } else if constexpr (std::is_same_v<T, bool>) {
            out_ += m ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
            put_double(out_, m);
        } else if constexpr (std::is_unsigned_v<T>) {
            put_u64(out_, m);
        } else if constexpr (wire_list<T>) {
            out_.push_back('[');
            for (const auto& e : m) {
                if (&e != m.data()) out_.push_back(',');
                value(e);
            }
            out_.push_back(']');
        } else {
            object([&](encoder& inner) { fields(m, inner); });
        }
    }

private:
    template <class F>
    void object(F&& list) {
        out_.push_back('{');
        encoder inner(out_);
        list(inner);
        out_.push_back('}');
    }

    // Every key follows either its object's '{' or a complete value, and
    // no value ends in '{'. Keys are the schema's identifiers, which JSON
    // needs no escapes for.
    void put_key(std::string_view key) {
        if (out_.back() != '{') out_.push_back(',');
        out_.push_back('"');
        out_.append(key);
        out_.append("\":", 2);
    }

    std::string& out_;
};

// --- decoder ----------------------------------------------------------------

/// Reads one parsed JSON object into a payload by walking its description
/// (schema.h). Tolerant of unknown and missing keys (a missing key keeps
/// the member's default), strict about the values that are there.
class decoder {
public:
    explicit decoder(const jvalue& obj) : obj_(obj) {}

    template <class T>
    void operator()(std::string_view key, T& m) {
        if (const jvalue* j = obj_.find(key)) read(*j, m, key, false);
    }

    template <class T>
    void operator()(std::string_view key, T& m, omit_empty_t) {
        const jvalue* j = obj_.find(key);
        if (!j) return;
        if constexpr (requires { m.present; }) m.present = true;
        read(*j, m, key, false);
    }

    void operator()(std::string_view key, bool& m, true_unless_sent t) {
        m = obj_.find(t.key) == nullptr;
        (*this)(key, m);
    }

    template <class K, std::size_t N>
    void operator()(std::string_view key, K& m, const kind_names<N>& kinds) {
        const jvalue* j = obj_.find(key);
        if (!j) {
            // A message without its kind cannot be read; an enum kind
            // keeps its default.
            if constexpr (!std::is_enum_v<K>)
                bad("missing field \"" + std::string(key) + "\"");
            return;
        }
        expect(j->kind == jvalue::str_v, key, false, "a string", "");
        for (std::size_t i = 0; i < N; ++i)
            if (kinds.names[i] == j->str) return set_kind(m, i);
        bad("unknown " + std::string(kinds.noun) + " kind \"" + j->str +
            "\"");
    }

    template <class F>
    void group(std::string_view key, F&& list) {
        if (const jvalue* j = obj_.find(key)) {
            expect(j->kind == jvalue::obj_v, key, false, "an object", "");
            decoder inner(*j);
            list(inner);
        }
    }

    /// `element`: j is an entry of the list under `key`.
    template <class T>
    static void read(const jvalue& j, T& m, std::string_view key,
                     bool element) {
        if constexpr (std::is_same_v<T, std::string>) {
            expect(j.kind == jvalue::str_v, key, element, "a string",
                   "strings");
            m = j.str;
        } else if constexpr (std::is_same_v<T, bool>) {
            expect(j.kind == jvalue::bool_v, key, element, "a boolean",
                   "booleans");
            m = j.b;
        } else if constexpr (std::is_same_v<T, double>) {
            expect(j.kind == jvalue::num_v, key, element, "a number",
                   "numbers");
            m = j.num;
        } else if constexpr (std::is_unsigned_v<T>) {
            expect(j.kind == jvalue::num_v && j.has_unum, key, element,
                   "an unsigned integer", "unsigned integers");
            // Narrowing members (unsigned thread counts) refuse what
            // they cannot hold instead of wrapping.
            if (j.unum > std::numeric_limits<T>::max())
                bad("field \"" + std::string(key) + "\" is out of range");
            m = static_cast<T>(j.unum);
        } else if constexpr (wire_list<T>) {
            expect(j.kind == jvalue::arr_v, key, element, "an array",
                   "arrays");
            m.reserve(j.arr.size());
            for (const jvalue& e : j.arr) read(e, m.emplace_back(), key, true);
        } else {
            expect(j.kind == jvalue::obj_v, key, element, "an object",
                   "objects");
            decoder inner(j);
            fields(m, inner);
        }
    }

private:
    static void expect(bool ok, std::string_view key, bool element,
                       const char* one, const char* many) {
        if (!ok)
            bad("field \"" + std::string(key) +
                (element ? "\" must hold " : "\" must be ") +
                (element ? many : one));
    }

    const jvalue& obj_;
};

template <class T>
T decode_object(std::string_view line, const char* what) {
    const jvalue o = parser(line).parse();
    if (o.kind != jvalue::obj_v)
        bad(std::string(what) + " must be a JSON object");
    T m;
    decoder d(o);
    fields(m, d);
    return m;
}

}  // namespace

std::string encode(const request& q) {
    std::string out;
    encoder(out).value(q);
    return out;
}

std::string encode(const response& r) {
    std::string out;
    encoder(out).value(r);
    return out;
}

void encode_into(const request& q, std::string& out) {
    out.clear();  // keeps capacity: steady-state encodes never allocate
    encoder(out).value(q);
}

void encode_into(const response& r, std::string& out) {
    out.clear();
    encoder(out).value(r);
}

request decode_request(std::string_view line) {
    return decode_object<request>(line, "request");
}

response decode_response(std::string_view line) {
    return decode_object<response>(line, "response");
}

std::uint64_t extract_id(std::string_view line) {
    try {
        const jvalue o = parser(line).parse();
        if (o.kind == jvalue::obj_v) {
            std::uint64_t id = 0;
            decoder d(o);
            d("id", id);
            return id;
        }
    } catch (const wire_error&) {
        // Malformed line: fall through to the text scan below.
    }
    // Cheap scan for an "id":<digits> pair so even truncated lines get an
    // addressed error envelope.
    const std::string_view needle = "\"id\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string_view::npos) return 0;
    std::uint64_t id = 0;
    const auto [p, err] = std::from_chars(
        line.data() + pos + needle.size(), line.data() + line.size(), id);
    (void)p;
    return err == std::errc{} ? id : 0;
}

}  // namespace wrpt::svc
