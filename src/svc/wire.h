// Line-oriented JSON codec for the service API — the wire protocol of
// `wrpt_cli serve`.
//
// One request or response per line, UTF-8 JSON objects, no external
// dependencies (hand-rolled recursive-descent parser in wire.cpp, in the
// spirit of the .bench text utilities). Which keys a payload carries, in
// what order and how each is spelled is not written here: every payload
// has one field list in svc/schema.h, and one generic encoder and one
// generic decoder walk it. The encoders are canonical: every field of a
// kind is emitted (the few omit_empty ones only when non-empty), always
// in the same order, with doubles printed in shortest round-trip form
// (std::to_chars) — so encode(decode(encode(x))) == encode(x) byte for
// byte, and weight vectors survive the trip losslessly.
//
// One exception to the walk: a response that carries `hit_bytes` (a
// result-cache hit, svc/service.h) is written as `{"id":` + its id + those
// stored bytes — the same bytes the walk would write, encoded once when
// the entry was inserted. This holds for encode, encode_into and the
// entries of a matrix response alike.
//
// The decoder is tolerant of unknown fields (they are skipped, so newer
// clients can talk to older servers) but strict about values: malformed
// JSON, wrongly typed values, integers out of their member's range,
// non-finite numbers (JSON cannot carry NaN/inf; overflowing literals
// like 1e999 are rejected), and unknown request/response kinds throw
// wire_error.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/request.h"
#include "util/error.h"

namespace wrpt::svc {

/// Thrown on malformed wire text (bad JSON, bad kind, non-finite number).
class wire_error : public error {
public:
    explicit wire_error(const std::string& what) : error(what) {}
};

/// Canonical one-line JSON encodings (no trailing newline).
std::string encode(const request& q);
std::string encode(const response& r);

/// Reuse-contract encoders for hot paths: clear `out` (keeping its
/// capacity) and write the canonical encoding into it. A caller that
/// keeps one scratch string per connection/worker pays zero allocations
/// per encode once the buffer has grown to its working size.
void encode_into(const request& q, std::string& out);
void encode_into(const response& r, std::string& out);

/// Parse one line. Views, not strings: the decoder reads straight out of
/// the caller's buffer (scalars are parsed in place; only retained string
/// fields are copied). Throws wire_error on malformed input.
request decode_request(std::string_view line);
response decode_response(std::string_view line);

/// Best-effort extraction of the "id" field from a line that may not
/// parse as a full request — used to address error envelopes. Returns 0
/// when no id can be recovered.
std::uint64_t extract_id(std::string_view line);

}  // namespace wrpt::svc
