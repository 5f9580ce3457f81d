#include "history/atomicity.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/flat_hash.h"
#include "history/wellformed.h"

namespace remus::history {
namespace {

struct read_ref {
  std::uint32_t op;   // index into ops
  std::size_t write;  // index into writes (graph node)
};

/// Which constraint put an edge a -> b into the graph, and the reads it
/// names (op indices); the explanation text is built from this on failure.
struct edge_reason {
  enum class kind : std::uint8_t {
    initial,      // a is the initial write
    write_write,  // P1: a wholly precedes b
    write_read,   // C1: a wholly precedes `read`, which returns b
    read_write,   // C2: `read` returns a and wholly precedes b
    read_read,    // C3: `read` returns a, `later_read` returns b
  };
  kind why = kind::initial;
  std::uint32_t read = 0;
  std::uint32_t later_read = 0;
};

struct edge_hash {
  std::size_t operator()(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>(mix_u64(k));
  }
};

/// Finds one cycle in the constraint graph (for diagnostics) via iterative
/// DFS; returns node indices along the cycle.
std::vector<std::size_t> find_cycle(const std::vector<std::vector<std::size_t>>& adj) {
  const std::size_t n = adj.size();
  std::vector<int> state(n, 0);  // 0=unvisited 1=on stack 2=done
  std::vector<std::size_t> parent(n, SIZE_MAX);
  for (std::size_t root = 0; root < n; ++root) {
    if (state[root] != 0) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    state[root] = 1;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < adj[u].size()) {
        const std::size_t v = adj[u][next++];
        if (state[v] == 0) {
          state[v] = 1;
          parent[v] = u;
          stack.emplace_back(v, 0);
        } else if (state[v] == 1) {
          // Found a cycle v -> ... -> u -> v.
          std::vector<std::size_t> cyc{v};
          for (std::size_t x = u; x != v && x != SIZE_MAX; x = parent[x]) cyc.push_back(x);
          std::reverse(cyc.begin() + 1, cyc.end());
          return cyc;
        }
      } else {
        state[u] = 2;
        stack.pop_back();
      }
    }
  }
  return {};
}

}  // namespace

check_result check_atomicity(const history_log& h, criterion c) {
  if (const auto wf = check_well_formed(h); !wf.ok) {
    return {false, "ill-formed history: " + wf.explanation, true};
  }

  const std::vector<op_record> ops = extract_operations(h, c);

  // Collect writes; verify value uniqueness.
  std::vector<std::size_t> writes;  // op indices; node k+1 in the graph
  std::map<bytes, std::size_t> by_value;  // value -> graph node
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const op_record& op = ops[i];
    if (op.is_read) continue;
    if (op.written.is_initial()) {
      return {false, "checker requires non-initial write values: " + op.describe(), true};
    }
    writes.push_back(i);
    const auto [it, inserted] = by_value.emplace(op.written.data, writes.size());
    if (!inserted) {
      return {false, "checker requires unique write values: " + op.describe(), true};
    }
  }

  const std::size_t nodes = writes.size() + 1;  // node 0 = virtual initial write
  auto start2_of = [&](std::size_t node) -> pos2 {
    return node == 0 ? INT64_MIN : ops[writes[node - 1]].start2;
  };
  auto end2_of = [&](std::size_t node) -> pos2 {
    return node == 0 ? INT64_MIN : ops[writes[node - 1]].end2;
  };
  auto describe_node = [&](std::size_t node) -> std::string {
    return node == 0 ? std::string("W0(initial)") : ops[writes[node - 1]].describe();
  };

  // Included writes: completed ones, plus pending ones that were read.
  std::vector<bool> included(nodes, false);
  included[0] = true;
  for (std::size_t k = 0; k < writes.size(); ++k) {
    if (!ops[writes[k]].pending()) included[k + 1] = true;
  }

  // Map completed reads to their writes.
  std::vector<read_ref> reads;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const op_record& op = ops[i];
    if (!op.is_read || op.pending()) continue;  // pending reads dropped
    std::size_t node = 0;
    if (!op.returned->is_initial()) {
      const auto it = by_value.find(op.returned->data);
      if (it == by_value.end()) {
        return {false, "read returned a never-written value: " + op.describe(), false};
      }
      node = it->second;
      included[node] = true;  // a read-from write cannot be absent
    }
    reads.push_back(read_ref{static_cast<std::uint32_t>(i), node});
  }

  // Build the constraint graph over included writes. Each edge keeps the
  // first constraint that produced it; its text is rendered only if the
  // edge ends up in a reported cycle.
  std::vector<std::vector<std::size_t>> adj(nodes);
  flat_hash_map<std::uint64_t, edge_reason, edge_hash> why;
  auto add_edge = [&](std::size_t a, std::size_t b, edge_reason reason) {
    const std::size_t known = why.size();
    edge_reason& slot = why[(static_cast<std::uint64_t>(a) << 32) | b];
    if (why.size() == known) return;
    slot = reason;
    adj[a].push_back(b);
  };
  auto render = [&](std::size_t a, std::size_t b, const edge_reason& e) -> std::string {
    switch (e.why) {
      case edge_reason::kind::initial:
        return "initial value precedes all writes";
      case edge_reason::kind::write_write:
        return describe_node(a) + " precedes " + describe_node(b);
      case edge_reason::kind::write_read:
        return describe_node(a) + " precedes " + ops[e.read].describe() +
               " which returns " + describe_node(b);
      case edge_reason::kind::read_write:
        return ops[e.read].describe() + " (returning " + describe_node(a) +
               ") precedes " + describe_node(b);
      case edge_reason::kind::read_read:
        return ops[e.read].describe() + " precedes " + ops[e.later_read].describe() +
               " but they return opposite-ordered writes";
    }
    return {};
  };

  // w0 precedes every included write.
  for (std::size_t k = 1; k < nodes; ++k) {
    if (!included[k]) continue;
    add_edge(0, k, {edge_reason::kind::initial});
  }

  // P1: write-write real-time precedence.
  for (std::size_t a = 1; a < nodes; ++a) {
    if (!included[a]) continue;
    for (std::size_t b = 1; b < nodes; ++b) {
      if (a == b || !included[b]) continue;
      if (end2_of(a) < start2_of(b)) add_edge(a, b, {edge_reason::kind::write_write});
    }
  }

  // C0/C1/C2: read-write constraints.
  for (const read_ref& rr : reads) {
    const op_record& r = ops[rr.op];
    if (r.end2 < start2_of(rr.write)) {
      return {false,
              "read precedes the write it returns: " + r.describe() + " vs " +
                  describe_node(rr.write),
              false};
    }
    for (std::size_t w = 0; w < nodes; ++w) {
      if (!included[w] || w == rr.write) continue;
      if (end2_of(w) < r.start2) {
        // C1: w wholly precedes r, so w cannot follow r's write.
        add_edge(w, rr.write, {edge_reason::kind::write_read, rr.op});
      }
      if (r.end2 < start2_of(w)) {
        // C2: r wholly precedes w, so r's write must precede w.
        add_edge(rr.write, w, {edge_reason::kind::read_write, rr.op});
      }
    }
  }

  // C3: read-read precedence across different writes.
  for (const read_ref& r1 : reads) {
    for (const read_ref& r2 : reads) {
      if (r1.write == r2.write) continue;
      if (ops[r1.op].end2 < ops[r2.op].start2) {
        add_edge(r1.write, r2.write,
                 {edge_reason::kind::read_read, r1.op, r2.op});
      }
    }
  }

  const auto cyc = find_cycle(adj);
  if (!cyc.empty()) {
    std::string ex = "no legal sequential completion; constraint cycle:\n";
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const std::size_t a = cyc[i];
      const std::size_t b = cyc[(i + 1) % cyc.size()];
      ex += "  " + describe_node(a) + " -> " + describe_node(b);
      if (const edge_reason* e = why.find((static_cast<std::uint64_t>(a) << 32) | b)) {
        ex += "   [" + render(a, b, *e) + "]";
      }
      ex += "\n";
    }
    return {false, ex, false};
  }
  return {true, "", false};
}

}  // namespace remus::history
