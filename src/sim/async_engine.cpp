#include "sim/async_engine.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <queue>

#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

namespace {

constexpr unsigned kMaxSlotsPerFrame = 8;

struct FrameRecord {
  double start = 0.0;
  double end = 0.0;
  Mode mode = Mode::kQuiet;
  net::ChannelId channel = net::kInvalidChannel;
  // Real-time slot boundaries: bounds[0] = start, bounds[slots] = end.
  std::array<double, kMaxSlotsPerFrame + 1> bounds{};
  unsigned slots = 0;
};

struct NodeState {
  std::unique_ptr<Clock> clock;
  double local_next = 0.0;       // local time of the next frame start
  std::uint64_t next_seq = 0;    // sequence number of the next frame
  std::uint64_t base_seq = 0;    // sequence number of history.front()
  std::deque<FrameRecord> history;
  double start_time = 0.0;       // real time the node starts discovery
};

// One live transmit frame in the per-channel interval index: the frame
// record is copied so the index never dangles into a pruned history.
struct TxEntry {
  net::NodeId sender = net::kInvalidNode;
  FrameRecord frame;
};

enum class EventKind : unsigned char { kFrameEnd = 0, kFrameStart = 1 };

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kFrameStart;
  net::NodeId node = net::kInvalidNode;
  std::uint64_t frame_seq = 0;  // for kFrameEnd: which frame to resolve

  // Min-heap ordering: earliest time first; frame ends before starts at
  // equal times (the tie order is immaterial for correctness — see overlap
  // semantics — but must be deterministic).
  [[nodiscard]] friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.node > b.node;
  }
};

}  // namespace

AsyncEngineResult run_async_engine(const net::Network& network,
                                   const AsyncPolicyFactory& factory,
                                   const AsyncEngineConfig& config) {
  const net::NodeId n = network.node_count();
  M2HEW_CHECK(config.frame_length > 0.0);
  M2HEW_CHECK(config.slots_per_frame >= 1 &&
              config.slots_per_frame <= kMaxSlotsPerFrame);
  validate_engine_common(config, n);

  TrialSetup<AsyncPolicy> setup(network, factory, config.seed);
  FaultState<double> faults(network, setup.seeds(), config.faults);

  const Interference<double> jammed{config, faults};
  const bool has_interference = jammed.any();

  std::vector<NodeState> nodes(n);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  // Per-channel interval index of live transmit frames (indexed reception
  // path): appended in event order — so sorted by frame start — and
  // pruned from the front with the same retention horizon as the
  // per-node histories.
  std::vector<std::deque<TxEntry>> live_tx(
      config.indexed_reception ? network.universe_size() : 0);

  double t_s = 0.0;
  for (net::NodeId u = 0; u < n; ++u) {
    NodeState& node = nodes[u];
    const std::uint64_t clock_seed = setup.seeds().derive(u, 0xC10C);
    if (config.faults.drift_wander.enabled) {
      // Drift-wander fault: per-node piecewise drift within the δ bound,
      // seeded from the standard clock stream. Takes precedence over
      // clock_builder so one knob turns the perturbation on for any
      // scenario.
      const DriftWanderSpec& dw = config.faults.drift_wander;
      node.clock = std::make_unique<PiecewiseDriftClock>(
          PiecewiseDriftClock::Config{dw.max_drift, dw.min_segment,
                                      dw.max_segment, 0.0},
          clock_seed);
    } else {
      node.clock = config.clock_builder
                       ? config.clock_builder(u, clock_seed)
                       : std::make_unique<IdealClock>(0.0);
    }
    M2HEW_CHECK_MSG(node.clock != nullptr, "clock builder returned null");
    node.start_time = start_of(config.starts, u);
    t_s = std::max(t_s, node.start_time);
    node.local_next = node.clock->local_at_real(node.start_time);
    queue.push({node.start_time, EventKind::kFrameStart, u, 0});
  }

  AsyncEngineResult result{.t_s = t_s,
                           .frames_started = std::vector<std::uint64_t>(n, 0),
                           .activity = std::vector<RadioActivity>(n),
                           .full_frames_since_ts = {},
                           .state = DiscoveryState(network),
                           .robustness = {}};

  // History retention: a frame overlapping a just-ended listening frame g
  // started no earlier than g.start minus one (maximal) frame length. Track
  // the longest real frame seen and keep a few multiples of it
  // (kHistoryHorizonFactor, shared with the live-transmit index).
  double max_frame_real_len = 0.0;
  double last_covered_time = 0.0;
  double end_time = 0.0;  // time of the last processed event (for assess)

  const double slot_local_len =
      config.frame_length / static_cast<double>(config.slots_per_frame);

  // Time-varying topology: a listening frame resolves against the link set
  // of the epoch its frame STARTS in (frames are not split at epoch
  // boundaries — see docs/MODEL.md "Time-varying topology & mobility").
  const net::TopologyProvider* provider =
      topology_provider_of(config, network);

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    if (ev.time > config.max_real_time) break;
    end_time = ev.time;

    NodeState& node = nodes[ev.node];

    if (ev.kind == EventKind::kFrameStart) {
      if (node.next_seq >= config.max_frames_per_node) continue;

      FrameRecord frame;
      frame.start = ev.time;
      frame.slots = config.slots_per_frame;
      frame.bounds[0] = ev.time;
      for (unsigned j = 1; j <= config.slots_per_frame; ++j) {
        frame.bounds[j] = node.clock->real_at_local(
            node.local_next + slot_local_len * static_cast<double>(j));
      }
      frame.end = frame.bounds[config.slots_per_frame];
      M2HEW_CHECK_MSG(frame.end > frame.start,
                      "clock must be strictly increasing");
      max_frame_real_len =
          std::max(max_frame_real_len, frame.end - frame.start);

      // Churn is sampled at frame starts: a node that is down when its
      // next frame would begin keeps its radio off for the whole frame —
      // the policy is not polled (its frame indices are node-local and
      // resume after recovery), the frame stays quiet in the history so
      // the seq/timing bookkeeping is undisturbed, and neither activity
      // nor frames_started are counted.
      const bool down = faults.down_at(ev.node, ev.time);
      if (!down) {
        // Adversary roles replace the node's policy at frame granularity,
        // one action per frame — the frame-axis mirror of the slotted
        // engines' per-slot intercept.
        if (faults.scripted(ev.node)) {
          const SlotAction action =
              faults.adversary_action(ev.node, setup.rng(ev.node));
          frame.mode = action.mode;
          frame.channel = action.channel;
        } else {
          if (faults.consume_reset(ev.node, ev.time)) {
            setup.reset_policy(ev.node);
          }
          const FrameAction action =
              setup.policy(ev.node).next_frame(setup.rng(ev.node));
          frame.mode = action.mode;
          frame.channel = action.channel;
          if (action.mode != Mode::kQuiet) {
            M2HEW_DCHECK(network.available(ev.node).contains(action.channel));
          }
        }
        count_mode(result.activity[ev.node], frame.mode);
      }

      // Prune history that can no longer overlap any live listening frame.
      const double horizon =
          ev.time - kHistoryHorizonFactor * max_frame_real_len;
      while (!node.history.empty() && node.history.front().end < horizon) {
        node.history.pop_front();
        ++node.base_seq;
      }

      const std::uint64_t seq = node.next_seq++;
      node.history.push_back(frame);
      if (!down) ++result.frames_started[ev.node];
      node.local_next += config.frame_length;

      // Keep the transmit-frame index in step: insert the new live frame
      // (a copy, so pruning a node's history never dangles the index) and
      // drop entries that no retained listening frame can overlap.
      if (config.indexed_reception && frame.mode == Mode::kTransmit) {
        std::deque<TxEntry>& live = live_tx[frame.channel];
        while (!live.empty() && live.front().frame.end < horizon) {
          live.pop_front();
        }
        live.push_back({ev.node, frame});
      }

      if (frame.mode == Mode::kReceive) {
        queue.push({frame.end, EventKind::kFrameEnd, ev.node, seq});
      }
      queue.push({frame.end, EventKind::kFrameStart, ev.node, 0});
      continue;
    }

    // Frame end of a listening frame: resolve receptions.
    M2HEW_CHECK(ev.frame_seq >= node.base_seq);
    const FrameRecord& g =
        node.history[static_cast<std::size_t>(ev.frame_seq - node.base_seq)];
    const net::ChannelId c = g.channel;
    const net::NodeId u = ev.node;
    const net::Network& adj =
        provider != nullptr
            ? provider->epoch(epoch_at(*provider, config.epoch_length, g.start))
            : network;

    // Collect all in-neighbor transmissions on c that overlap g and whose
    // arc to u actually carries c (a transmission that does not propagate
    // to u neither delivers nor interferes). Each entry is one
    // transmitting *frame* (a contiguous burst of slots).
    struct Burst {
      net::NodeId sender;
      const FrameRecord* frame;
    };
    std::vector<Burst> bursts;
    if (config.indexed_reception) {
      // Touch only live transmissions on c: prune the channel's index to
      // the retention horizon, filter by overlap and the flat in-neighbor
      // adjacency, then sort into the reference path's (sender id, frame
      // start) order so callbacks and loss_rng draws are bit-identical.
      std::deque<TxEntry>& live = live_tx[c];
      const double horizon =
          ev.time - kHistoryHorizonFactor * max_frame_real_len;
      while (!live.empty() && live.front().frame.end < horizon) {
        live.pop_front();
      }
      for (const TxEntry& entry : live) {
        if (entry.sender == u) continue;
        if (entry.frame.start >= g.end || entry.frame.end <= g.start) {
          continue;
        }
        const net::ChannelSet* span = adj.in_span(entry.sender, u);
        if (span == nullptr || !span->contains(c)) continue;
        bursts.push_back({entry.sender, &entry.frame});
      }
      std::sort(bursts.begin(), bursts.end(),
                [](const Burst& a, const Burst& b) {
                  return a.sender != b.sender
                             ? a.sender < b.sender
                             : a.frame->start < b.frame->start;
                });
    } else {
      for (const net::Network::InLink& in : adj.in_links(u)) {
        if (!in.span->contains(c)) continue;
        for (const FrameRecord& f : nodes[in.from].history) {
          if (f.mode != Mode::kTransmit || f.channel != c) continue;
          if (f.start < g.end && f.end > g.start) {
            bursts.push_back({in.from, &f});
          }
        }
      }
    }

    // Whether sender `who` actually emits during slot j of frame f: under
    // dynamic interference, a jammed transmitter vacates that slot. The
    // PU field is sampled at the slot midpoint — the same instant the
    // listener side samples below — so both ends of a link always agree
    // about one interference burst.
    auto slot_transmitted = [&](net::NodeId who, const FrameRecord& f,
                                unsigned j) {
      if (!has_interference) return true;
      return !jammed((f.bounds[j] + f.bounds[j + 1]) / 2.0, who, f.channel);
    };
    // Whether any non-suppressed slot of `other` overlaps (s0, s1).
    auto burst_interferes = [&](const Burst& other, double s0, double s1) {
      const FrameRecord& h = *other.frame;
      if (h.start >= s1 || h.end <= s0) return false;
      if (!has_interference) return true;  // contiguous burst
      for (unsigned j = 0; j < h.slots; ++j) {
        if (h.bounds[j] < s1 && h.bounds[j + 1] > s0 &&
            slot_transmitted(other.sender, h, j)) {
          return true;
        }
      }
      return false;
    };

    // For each transmitting neighbor frame, test each of its slots for
    // clear reception: slot fully inside g, no other sender's burst
    // overlapping the slot.
    for (const Burst& burst : bursts) {
      const FrameRecord& f = *burst.frame;
      for (unsigned j = 0; j < f.slots; ++j) {
        const double s0 = f.bounds[j];
        const double s1 = f.bounds[j + 1];
        if (s0 < g.start || s1 > g.end) continue;
        if (!slot_transmitted(burst.sender, f, j)) continue;
        if (has_interference && jammed((s0 + s1) / 2.0, u, c)) {
          continue;  // PU noise at the listener drowns this slot
        }
        bool interfered = false;
        for (const Burst& other : bursts) {
          if (other.sender == burst.sender) continue;
          if (burst_interferes(other, s0, s1)) {
            interfered = true;
            break;
          }
        }
        if (interfered) continue;
        // The shared disposition chain. A jammer's burst is noise (it
        // still interferes with other senders above, but never decodes);
        // a lost slot leaves the burst's later slots in play; any other
        // outcome settles this sender for the frame.
        const Reception rx = dispose_reception(
            faults, burst.sender, u, s1, setup.loss_rng(),
            config.loss_probability, [&](net::NodeId id) {
              return setup.policy(u).admit_neighbor(id);
            });
        if (rx.disposition == Disposition::kLost) continue;
        if (rx.disposition == Disposition::kFake) {
          setup.policy(u).observe_reception(rx.announced, rx.first_fake);
        } else if (rx.disposition == Disposition::kAdmitted) {
          const bool first_time =
              result.state.record_reception(burst.sender, u, s1);
          if (first_time) {
            last_covered_time = std::max(last_covered_time, s1);
          }
          setup.policy(u).observe_reception(burst.sender, first_time);
        }
        break;
      }
    }

    if (note_completion(result.state, result.complete, result.completion_time,
                        last_covered_time, config.stop_when_complete)) {
      break;
    }
  }

  result.robustness = faults.assess(result.state, end_time);

  if (result.complete) {
    // Count, per node, full frames contained in [T_s, completion_time]
    // (Theorem 9's unit). Frame timing is deterministic given the clock, so
    // this is reconstructed exactly from frame indices.
    result.full_frames_since_ts.assign(n, 0);
    for (net::NodeId u = 0; u < n; ++u) {
      NodeState& node = nodes[u];
      const double local0 = node.clock->local_at_real(node.start_time);
      auto frame_start = [&](std::uint64_t k) {
        return node.clock->real_at_local(
            local0 + config.frame_length * static_cast<double>(k));
      };
      // Find the first frame starting at/after T_s (binary search on the
      // monotone frame-start sequence).
      std::uint64_t lo = 0;
      std::uint64_t hi = node.next_seq;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (frame_start(mid) >= result.t_s) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      // Count frames k >= lo with end (= start of k+1) <= completion_time.
      std::uint64_t count = 0;
      for (std::uint64_t k = lo; k < node.next_seq; ++k) {
        if (frame_start(k + 1) <= result.completion_time) {
          ++count;
        } else {
          break;
        }
      }
      result.full_frames_since_ts[u] = count;
    }
  }

  return result;
}

}  // namespace m2hew::sim
