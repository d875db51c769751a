#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"

namespace m2hew::sim {

void Trace::record(net::NodeId node, std::uint64_t index, Mode mode,
                   net::ChannelId channel) {
  entries_.push_back({node, index, mode, channel});
}

std::vector<TraceEntry> Trace::for_node(net::NodeId node) const {
  std::vector<TraceEntry> out;
  for (const TraceEntry& e : entries_) {
    if (e.node == node) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEntry& a, const TraceEntry& b) {
              return a.index < b.index;
            });
  return out;
}

std::string Trace::render_timeline(std::uint64_t first,
                                   std::uint64_t count) const {
  net::NodeId max_node = 0;
  for (const TraceEntry& e : entries_) {
    max_node = std::max(max_node, e.node);
  }
  const net::NodeId nodes = entries_.empty() ? 0 : max_node + 1;

  // cells[node][offset] = rendered token.
  std::vector<std::vector<std::string>> cells(
      nodes, std::vector<std::string>(count, ".  "));
  for (const TraceEntry& e : entries_) {
    if (e.index < first || e.index >= first + count) continue;
    char buf[8];
    if (e.mode == Mode::kQuiet) continue;
    std::snprintf(buf, sizeof(buf), "%c%-2u",
                  e.mode == Mode::kTransmit ? 'T' : 'R', e.channel);
    cells[e.node][e.index - first] = buf;
  }

  std::string out;
  for (net::NodeId u = 0; u < nodes; ++u) {
    char head[24];
    std::snprintf(head, sizeof(head), "node %3u |", u);
    out += head;
    for (const std::string& cell : cells[u]) {
      out += ' ';
      out += cell;
    }
    out += '\n';
  }
  return out;
}

namespace {

// Records every action the inner policy returns and forwards every engine
// callback to it, so a traced run is exactly the run it traces.
template <typename Base>
class Tracing : public Base {
 public:
  Tracing(std::unique_ptr<Base> inner, Trace& trace, net::NodeId node)
      : inner_(std::move(inner)), trace_(&trace), node_(node) {
    M2HEW_CHECK(inner_ != nullptr);
  }

  void observe_reception(net::NodeId from, bool first_time) override {
    inner_->observe_reception(from, first_time);
  }

  [[nodiscard]] bool admit_neighbor(net::NodeId announced) override {
    return inner_->admit_neighbor(announced);
  }

 protected:
  template <typename Action>
  Action record(Action action) {
    trace_->record(node_, index_++, action.mode, action.channel);
    return action;
  }

  std::unique_ptr<Base> inner_;

 private:
  Trace* trace_;
  net::NodeId node_;
  std::uint64_t index_ = 0;
};

class TracingSyncPolicy final : public Tracing<SyncPolicy> {
 public:
  using Tracing::Tracing;

  SlotAction next_slot(util::Rng& rng) override {
    return record(inner_->next_slot(rng));
  }

  void observe_listen_outcome(ListenOutcome outcome) override {
    inner_->observe_listen_outcome(outcome);
  }
};

class TracingAsyncPolicy final : public Tracing<AsyncPolicy> {
 public:
  using Tracing::Tracing;

  FrameAction next_frame(util::Rng& rng) override {
    return record(inner_->next_frame(rng));
  }
};

template <typename Traced, typename Factory>
[[nodiscard]] Factory traced_factory(Factory inner, Trace& trace) {
  return [inner = std::move(inner), &trace](const net::Network& network,
                                            net::NodeId u) {
    return std::make_unique<Traced>(inner(network, u), trace, u);
  };
}

}  // namespace

SyncPolicyFactory traced(SyncPolicyFactory inner, Trace& trace) {
  return traced_factory<TracingSyncPolicy>(std::move(inner), trace);
}

AsyncPolicyFactory traced(AsyncPolicyFactory inner, Trace& trace) {
  return traced_factory<TracingAsyncPolicy>(std::move(inner), trace);
}

}  // namespace m2hew::sim
