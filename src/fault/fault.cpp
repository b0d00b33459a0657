#include "fault/fault.h"

#include <numeric>
#include <unordered_map>

#include "util/error.h"
#include "util/label.h"

namespace wrpt {

std::string to_string(const netlist& nl, const fault& f) {
    auto node_label = [&nl](node_id n) {
        const std::string& nm = nl.node_name(n);
        if (!nm.empty()) return nm;
        return label("n", n);
    };
    std::string s = node_label(f.where);
    if (!f.is_stem()) {
        s += ".in";
        s += std::to_string(f.pin);
    }
    s += stuck_value(f.value) ? " sa1" : " sa0";
    return s;
}

node_id fault_site_driver(const netlist& nl, const fault& f) {
    if (f.is_stem()) return f.where;
    return nl.fanins(f.where)[static_cast<std::size_t>(f.pin)];
}

std::vector<fault> generate_full_faults(const netlist& nl) {
    std::vector<fault> out;
    for (node_id n = 0; n < nl.node_count(); ++n) {
        const bool dead = nl.fanout_count(n) == 0 && !nl.is_output(n);
        if (dead) continue;
        // Skip the "stuck at its own value" faults of constant nodes: they
        // are undetectable by construction.
        const bool skip0 = nl.kind(n) == gate_kind::const0;
        const bool skip1 = nl.kind(n) == gate_kind::const1;
        if (!skip0) out.push_back({n, -1, stuck_at::zero});
        if (!skip1) out.push_back({n, -1, stuck_at::one});
    }
    for (node_id g = 0; g < nl.node_count(); ++g) {
        if (nl.fanout_count(g) == 0 && !nl.is_output(g)) continue;  // dead
        const auto fi = nl.fanins(g);
        for (std::size_t k = 0; k < fi.size(); ++k) {
            if (nl.fanout_count(fi[k]) <= 1) continue;  // branch == stem
            out.push_back({g, static_cast<std::int32_t>(k), stuck_at::zero});
            out.push_back({g, static_cast<std::int32_t>(k), stuck_at::one});
        }
    }
    return out;
}

namespace {

/// Union-find with path compression.
class union_find {
public:
    explicit union_find(std::size_t n) : parent_(n) {
        std::iota(parent_.begin(), parent_.end(), 0);
    }
    std::size_t find(std::size_t x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }
    void unite(std::size_t a, std::size_t b) {
        a = find(a);
        b = find(b);
        if (a != b) parent_[std::max(a, b)] = std::min(a, b);
    }

private:
    std::vector<std::size_t> parent_;
};

/// Key identifying a fault uniquely: (line id, stuck value).
std::uint64_t fault_key(const netlist& nl, const fault& f) {
    // Line id: stems use node ids; branches use node_count + global pin no.
    std::uint64_t line;
    if (f.is_stem()) {
        line = f.where;
    } else {
        // Unique per (gate, pin): gate id * max_arity-ish packing.
        line = (static_cast<std::uint64_t>(f.where) << 16) |
               static_cast<std::uint64_t>(f.pin);
        line += static_cast<std::uint64_t>(nl.node_count()) << 1;
    }
    return (line << 1) | (stuck_value(f.value) ? 1u : 0u);
}

}  // namespace

collapsed_faults collapse_faults(const netlist& nl) {
    return collapse_faults(nl, generate_full_faults(nl));
}

collapsed_faults collapse_faults(const netlist& nl,
                                 const std::vector<fault>& full) {
    collapsed_faults out;
    out.all = full;

    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(full.size() * 2);
    for (std::size_t i = 0; i < full.size(); ++i)
        index.emplace(fault_key(nl, full[i]), i);

    auto lookup = [&](const fault& f) -> std::ptrdiff_t {
        auto it = index.find(fault_key(nl, f));
        return it == index.end() ? -1 : static_cast<std::ptrdiff_t>(it->second);
    };
    // The fault "value v on pin k of gate g", expressed on the line that
    // actually carries it: the branch when the driver has fanout > 1,
    // otherwise the driver's stem. A driver that is also a primary output
    // is observed there, so its stem fault is not the pin fault; the
    // branch is not in the list either, and the lookup merges nothing.
    auto input_fault = [&](node_id g, std::size_t k, stuck_at v) -> fault {
        const node_id drv = nl.fanins(g)[k];
        if (nl.fanout_count(drv) > 1 || nl.is_output(drv))
            return {g, static_cast<std::int32_t>(k), v};
        return {drv, -1, v};
    };

    union_find uf(full.size());
    for (node_id g = 0; g < nl.node_count(); ++g) {
        const gate_kind kind = nl.kind(g);
        const auto fi = nl.fanins(g);
        if (fi.empty()) continue;
        if (nl.fanout_count(g) == 0 && !nl.is_output(g)) continue;

        if (kind == gate_kind::buf || kind == gate_kind::not_) {
            const bool inv = (kind == gate_kind::not_);
            for (stuck_at v : {stuck_at::zero, stuck_at::one}) {
                const stuck_at ov =
                    (stuck_value(v) != inv) ? stuck_at::one : stuck_at::zero;
                const auto a = lookup(input_fault(g, 0, v));
                const auto b = lookup(fault{g, -1, ov});
                if (a >= 0 && b >= 0)
                    uf.unite(static_cast<std::size_t>(a),
                             static_cast<std::size_t>(b));
            }
            continue;
        }
        if (!kind_has_controlling_value(kind)) continue;  // xor/xnor: none

        const bool c = controlling_value(kind);
        // Output value when an input is stuck at the controlling value.
        const bool out_val = kind_inverts(kind) ? !c : c;
        const stuck_at cv = c ? stuck_at::one : stuck_at::zero;
        const stuck_at ov = out_val ? stuck_at::one : stuck_at::zero;
        const auto ob = lookup(fault{g, -1, ov});
        if (ob < 0) continue;
        for (std::size_t k = 0; k < fi.size(); ++k) {
            const auto a = lookup(input_fault(g, k, cv));
            if (a >= 0)
                uf.unite(static_cast<std::size_t>(a),
                         static_cast<std::size_t>(ob));
        }
    }

    // Number the classes by their smallest member (the representative).
    out.class_of.assign(full.size(), 0);
    std::unordered_map<std::size_t, std::uint32_t> class_id;
    for (std::size_t i = 0; i < full.size(); ++i) {
        const std::size_t root = uf.find(i);
        auto it = class_id.find(root);
        if (it == class_id.end()) {
            const auto id = static_cast<std::uint32_t>(out.representative.size());
            class_id.emplace(root, id);
            out.representative.push_back(static_cast<std::uint32_t>(i));
            out.class_of[i] = id;
        } else {
            out.class_of[i] = it->second;
        }
    }
    return out;
}

}  // namespace wrpt
