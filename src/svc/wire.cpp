#include "svc/wire.h"

#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "svc/schema.h"

namespace wrpt::svc {

namespace {

[[noreturn]] void bad(const std::string& why) { throw wire_error("wire: " + why); }

// JSON escapes. To encode: the letter after '\' for each control
// character, 'u' where it is written \u00XX. To decode: the character
// each letter stands for, 0 for a letter that is no escape.
constexpr char control_escape[] = "uuuuuuuubtnufruuuuuuuuuuuuuuuuuu";
constexpr auto escape_char = [] {
    std::array<char, 128> t{};
    for (int c = 0; c < 0x20; ++c)
        if (const char e = control_escape[c]; e != 'u')
            t[static_cast<unsigned char>(e)] = static_cast<char>(c);
    for (const char c : {'"', '\\', '/'}) t[static_cast<unsigned char>(c)] = c;
    return t;
}();

// --- canonical encoder ------------------------------------------------------

void put_escaped(std::string& out, std::string_view s) {
    static constexpr char hex[] = "0123456789abcdef";
    out.push_back('"');
    const char* run = s.data();  // not yet written, needs no escape
    for (const char& ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        if (c != '"' && c != '\\' && c >= 0x20) continue;
        const char letter = c < 0x20 ? control_escape[c] : ch;
        out.append(run, &ch).append({'\\', letter});
        if (letter == 'u') out.append({'0', '0', hex[c >> 4], hex[c & 15]});
        run = &ch + 1;
    }
    out.append(run, s.data() + s.size()).push_back('"');
}

/// Integers in decimal, doubles in the shortest form that round-trips.
template <class N>
void put_number(std::string& out, N v) {
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Writes a payload's fields in description order (schema.h), inserting
/// the comma separators. Appends to `out` without clearing it, so callers
/// reuse one buffer across encodes and nested objects need no temporaries.
class encoder {
public:
    explicit encoder(std::string& out) : out_(out) {}

    /// Plain, omit_empty and true_unless_sent fields.
    template <class T, class... Spelling>
    void operator()(std::string_view key, const T& m, Spelling...) {
        if constexpr ((std::is_same_v<Spelling, omit_empty_t> || ...))
            if (empty_field(m)) return;
        put_key(key);
        value(m);
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
            if (!std::isfinite(m)) bad("cannot encode non-finite number");
            put_number(out_, m);
        } else if constexpr (std::is_unsigned_v<T>) {
            put_number(out_, std::uint64_t{m});
        } else if constexpr (wire_list<T>) {
            out_.push_back('[');
            for (const auto& e : m) {
                if (&e != m.data()) out_.push_back(',');
                value(e);
            }
            out_.push_back(']');
        } else if constexpr (std::is_same_v<T, response>) {
            if (!m.hit_bytes)
                return object([&](encoder& inner) { fields(m, inner); });
            // A cache hit: everything after the id is the entry's.
            out_.append("{\"id\":", 6);
            put_number(out_, m.id);
            out_.append(*m.hit_bytes);
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

/// Per-thread scratch, cleared (capacity kept) as each decode starts:
/// every number and the unescaped text of every string the scanner has
/// checked, in order. Checking a value means parsing it, so the scan keeps
/// what it parsed and a member is filled in one copy.
thread_local std::vector<double> scanned_numbers;
thread_local std::string scanned_text;

/// A scanned object's member: its key (in scanned_text) and its value's
/// text as written. `at` is where a string value's text starts in
/// scanned_text, or where the values of a number or an array of numbers
/// only start in scanned_numbers; `size` counts a string's bytes or an
/// array's entries.
struct member {
    static constexpr std::size_t npos = std::size_t(-1);
    std::size_t key_at = 0, key_size = 0;
    std::string_view value;
    std::size_t at = npos, size = 0;
};

/// The members of the objects being decoded, innermost last; per thread,
/// like the buffers above.
thread_local std::vector<member> member_stack;

/// Validating JSON scanner over a view of the caller's buffer (connection
/// inbuf, bench transcript): checks syntax — RFC 8259 numbers, string
/// escapes and surrogates, nesting depth — and reports where values end.
class scanner {
public:
    explicit scanner(std::string_view text)
        : p_(text.data()), end_(text.data() + text.size()) {}

    // A hostile line gets an error envelope, not a blown stack: the cap is
    // far above any legitimate shape (matrix responses nest three levels).
    static constexpr int max_depth = 64;

    void skip_ws() {
        while (p_ != end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n'))
            ++p_;
    }

    char peek() {
        skip_ws();
        if (p_ == end_) bad("unexpected end of input");
        return *p_;
    }

    void expect(char c) {
        if (peek() != c)
            bad(std::string("expected '") + c + "', got '" + *p_ + "'");
        ++p_;
    }

    bool consume(char c) {
        skip_ws();
        return p_ != end_ && *p_ == c && (++p_, true);
    }

    void expect_end() {
        skip_ws();
        if (p_ != end_) bad("trailing characters after JSON value");
    }

    /// Checks the value at the cursor, `level` deep (the line's own value
    /// is level 1), and returns its text; `m` learns what the scan kept.
    std::string_view value(int level, member* m = nullptr) {
        if (level > max_depth) bad("nesting deeper than 64 levels");
        const char* start = (peek(), p_);
        switch (*p_) {
            case '{': object(level, false); break;
            case '[': {
                ++p_;
                const std::size_t first = scanned_numbers.size();
                std::size_t n = 0;
                bool numeric = true;
                if (!consume(']')) {
                    do {
                        // Numbers, the common entry, skip the dispatch.
                        const char c = peek();
                        if ((c == '-' || digit(c)) && level < max_depth) {
                            number();
                        } else {
                            numeric = false;
                            value(level + 1);
                        }
                        ++n;
                    } while (consume(','));
                    expect(']');
                }
                if (m) m->size = n;
                if (m && numeric) m->at = first;
                break;
            }
            case '"': {
                const std::size_t at = scanned_text.size();
                string();
                if (m) {
                    m->at = at;
                    m->size = scanned_text.size() - at;
                }
                break;
            }
            case 't': case 'f': case 'n': literal(); break;
            default:
                if (m) m->at = scanned_numbers.size();
                number();
                break;
        }
        return {start, static_cast<std::size_t>(p_ - start)};
    }

    /// Checks the object at the cursor, `level` deep; with `record`,
    /// appends its members to member_stack in the order written.
    void object(int level, bool record) {
        expect('{');
        if (consume('}')) return;
        do {
            member m;
            m.key_at = scanned_text.size();
            string();
            m.key_size = scanned_text.size() - m.key_at;
            expect(':');
            m.value = value(level + 1, &m);
            if (record) member_stack.push_back(m);
        } while (consume(','));
        expect('}');
    }

    /// Checks the string at the cursor and appends its unescaped text to
    /// scanned_text, copying plain runs whole.
    void string() {
        expect('"');
        while (true) {
            const char* run = p_;
            while (p_ != end_ && *p_ != '"' && *p_ != '\\' &&
                   static_cast<unsigned char>(*p_) >= 0x20)
                ++p_;
            scanned_text.append(run, p_);
            if (p_ == end_) bad("unterminated string");
            if (*p_++ == '"') return;
            if (p_[-1] != '\\') bad("raw control character in string");
            if (p_ == end_) bad("unterminated escape");
            if (*p_ == 'u') {
                ++p_;
                unicode_escape();
                continue;
            }
            const auto e = static_cast<unsigned char>(*p_++);
            if (e >= escape_char.size() || escape_char[e] == 0)
                bad("bad escape character");
            scanned_text.push_back(escape_char[e]);
        }
    }

private:
    void literal() {
        const std::string_view word =
            *p_ == 't' ? "true" : *p_ == 'f' ? "false" : "null";
        if (static_cast<std::size_t>(end_ - p_) < word.size() ||
            std::string_view(p_, word.size()) != word)
            bad("bad literal");
        p_ += word.size();
    }

    static bool digit(char c) { return c >= '0' && c <= '9'; }

    /// Parses the number at the cursor onto scanned_numbers. RFC 8259
    /// numbers only, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?:
    /// std::from_chars alone would also take "01", ".5" and "1.".
    void number() {
        static constexpr const char* not_json =
            "bad number (not an RFC 8259 JSON number)";
        const char* const start = p_;
        const char* const first = start + (*start == '-');
        if (first == end_ || !digit(*first))
            bad(first == start ? "expected a value" : not_json);
        if (*first == '0' && first + 1 != end_ && digit(first[1]))
            bad(not_json);
        double v = 0.0;
        const auto [ptr, err] = std::from_chars(start, end_, v);
        if (err != std::errc{})
            bad("bad number (non-finite values are not representable)");
        // from_chars may end the number on a point without digits after
        // it, or stop before an exponent without digits.
        const char* dot = first;
        while (dot != ptr && digit(*dot)) ++dot;
        if ((dot != ptr && *dot == '.' && (dot + 1 == ptr || !digit(dot[1]))) ||
            (ptr != end_ && (*ptr == '.' || *ptr == 'e' || *ptr == 'E' ||
                             *ptr == '+' || *ptr == '-')))
            bad(not_json);
        scanned_numbers.push_back(v);
        p_ = ptr;
    }

    void unicode_escape() {
        // The full range, not just the encoder's \u00XX; a surrogate pair
        // combines into one code point (raw CESU-8 would poison every
        // later response with invalid UTF-8).
        const auto hex4 = [&] {
            unsigned code = 0;
            const auto [ptr, err] =
                std::from_chars(p_, end_ - p_ < 4 ? end_ : p_ + 4, code, 16);
            if (err != std::errc{} || ptr != p_ + 4)
                bad("bad \\u escape: four hex digits needed");
            p_ = ptr;
            return code;
        };
        unsigned code = hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u')
                bad("unpaired high surrogate in \\u escape");
            p_ += 2;
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF)
                bad("bad low surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            bad("unpaired low surrogate in \\u escape");
        }
        // UTF-8: a lead byte, then six bits per continuation byte.
        static constexpr unsigned lead[] = {0, 0, 0xC0, 0xE0, 0xF0};
        const int n =
            code < 0x80 ? 1 : code < 0x800 ? 2 : code < 0x10000 ? 3 : 4;
        char bytes[4];
        for (int i = n - 1; i > 0; --i, code >>= 6)
            bytes[i] = static_cast<char>(0x80 | (code & 0x3F));
        bytes[0] = static_cast<char>(lead[n] | code);
        scanned_text.append(bytes, static_cast<std::size_t>(n));
    }

    const char* p_;
    const char* end_;
};

/// Reads one scanned object into a payload by walking its description
/// (schema.h). Any key order is accepted; unknown keys are skipped (the
/// scan has validated them) and of duplicate keys the first wins. A
/// missing key keeps the member's default; the values there are strict.
class decoder {
public:
    /// Scans the object at the cursor. A nested object is scanned again
    /// when read, as level 1: the line's own scan has checked its depth.
    explicit decoder(scanner& s) : begin_(member_stack.size()) {
        s.object(1, true);
        end_ = member_stack.size();
    }
    ~decoder() { member_stack.resize(begin_); }
    decoder(const decoder&) = delete;
    decoder& operator=(const decoder&) = delete;

    /// Plain and omit_empty fields alike; a decoded section is present.
    template <class T, class... Spelling>
    void operator()(std::string_view key, T& m, Spelling...) {
        if (const auto j = find(key)) {
            if constexpr (requires { m.present; }) m.present = true;
            read(*j, m, key, false);
        }
    }

    void operator()(std::string_view key, bool& m, true_unless_sent t) {
        m = !find(t.key);
        (*this)(key, m);
    }

    template <class K, std::size_t N>
    void operator()(std::string_view key, K& m, const kind_names<N>& kinds) {
        const auto j = find(key);  // a variant kind must be sent
        if (!j && !std::is_enum_v<K>)
            bad("missing field \"" + std::string(key) + "\"");
        if (!j) return;
        std::string name;
        read(*j, name, key, false);
        for (std::size_t i = 0; i < N; ++i)
            if (kinds.names[i] == name) return set_kind(m, i);
        bad("unknown " + std::string(kinds.noun) + " kind \"" + name + "\"");
    }

    template <class F>
    void group(std::string_view key, F&& list) {
        if (const auto j = find(key)) read_object(*j, key, false, list);
    }

private:
    /// The first member named `key`, by value (reads grow the stack).
    std::optional<member> find(std::string_view key) const {
        for (std::size_t i = begin_; i < end_; ++i) {
            const member& m = member_stack[i];
            if (std::string_view(scanned_text).substr(m.key_at, m.key_size) ==
                key)
                return m;
        }
        return std::nullopt;
    }

    /// Reads a scanned value into `m` (`element`: an entry of `key`'s list).
    template <class T>
    static void read(const member& j, T& m, std::string_view key,
                     bool element) {
        const char c = j.value[0];
        if constexpr (std::is_same_v<T, std::string>) {
            expect(c == '"', key, element, "a string", "strings");
            m.assign(scanned_text, j.at, j.size);
        } else if constexpr (std::is_same_v<T, bool>) {
            expect(c == 't' || c == 'f', key, element, "a boolean",
                   "booleans");
            m = c == 't';
        } else if constexpr (std::is_same_v<T, double>) {
            expect(c == '-' || (c >= '0' && c <= '9'), key, element,
                   "a number", "numbers");
            m = scanned_numbers[j.at];
        } else if constexpr (std::is_unsigned_v<T>) {
            // Integer literals only, exact to 64 bits and range-checked.
            const char* end = j.value.data() + j.value.size();
            std::uint64_t u = 0;
            const auto [ptr, err] = std::from_chars(j.value.data(), end, u);
            expect(err == std::errc{} && ptr == end, key, element,
                   "an unsigned integer", "unsigned integers");
            if (u > std::numeric_limits<T>::max())
                bad("field \"" + std::string(key) + "\" is out of range");
            m = static_cast<T>(u);
        } else if constexpr (wire_list<T>) {
            expect(c == '[', key, element, "an array", "arrays");
            if constexpr (std::is_same_v<T, weight_vector>) {
                const double* parsed = scanned_numbers.data();
                if (j.at != member::npos)  // all parsed by the scan
                    return m.assign(parsed + j.at, parsed + j.at + j.size);
            }
            m.reserve(j.size);
            scanner s(j.value);
            s.expect('[');
            if (s.consume(']')) return;
            do {
                member e;
                e.value = s.value(1, &e);
                read(e, m.emplace_back(), key, true);
            } while (s.consume(','));
        } else {
            read_object(j, key, element,
                        [&](decoder& inner) { fields(m, inner); });
        }
    }

    template <class F>
    static void read_object(const member& j, std::string_view key,
                            bool element, F&& list) {
        expect(j.value[0] == '{', key, element, "an object", "objects");
        scanner s(j.value);
        decoder inner(s);
        list(inner);
    }

    static void expect(bool ok, std::string_view key, bool element,
                       const char* one, const char* many) {
        if (!ok)
            bad("field \"" + std::string(key) +
                (element ? "\" must hold " : "\" must be ") +
                (element ? many : one));
    }

    std::size_t begin_;
    std::size_t end_;
};

/// Hands `read` the decoder of the one JSON object `line` must hold.
template <class F>
void decode_line(std::string_view line, const char* what, F&& read) {
    member_stack.clear();
    scanned_numbers.clear();
    scanned_text.clear();
    scanner s(line);
    if (s.peek() != '{') bad(std::string(what) + " must be a JSON object");
    decoder d(s);
    s.expect_end();
    read(d);
    // Text this long was an inline .bench. Hand its buffer back rather than
    // pin it per thread: holding it measurably slows the circuit compile
    // that follows a load (the allocator then maps large blocks afresh).
    if (scanned_text.capacity() > 64 * 1024) std::string().swap(scanned_text);
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
    request q;
    decode_line(line, "request", [&](decoder& d) { fields(q, d); });
    return q;
}

response decode_response(std::string_view line) {
    response r;
    decode_line(line, "response", [&](decoder& d) { fields(r, d); });
    return r;
}

std::uint64_t extract_id(std::string_view line) {
    try {
        std::uint64_t id = 0;
        decode_line(line, "line", [&](decoder& d) { d("id", id); });
        return id;
    } catch (const wire_error&) {
        // Malformed line: fall through to the text scan below.
    }
    // Cheap scan for an "id":<digits> pair so even truncated lines get an
    // addressed error envelope.
    const std::string_view needle = "\"id\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string_view::npos) return 0;
    std::uint64_t id = 0;
    const std::errc err = std::from_chars(line.data() + pos + needle.size(),
                                          line.data() + line.size(), id).ec;
    return err == std::errc{} ? id : 0;
}

}  // namespace wrpt::svc
