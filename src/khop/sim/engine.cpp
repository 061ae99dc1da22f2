#include "khop/sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "khop/common/assert.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/trace.hpp"
#include "khop/runtime/thread_pool.hpp"

namespace khop {

namespace detail {

/// One sealed broadcast. Its sender is implied by the group it sits in.
struct BcastRec {
  std::uint16_t type = 0;
  std::uint32_t ordinal = 0;
  PayloadView data;
};

/// One recorded message. `to` names the receiver of an addressed send and
/// is unused in the broadcast log.
struct SendRec {
  NodeId to = kInvalidNode;
  NodeId sender = kInvalidNode;
  std::uint16_t type = 0;
  std::uint32_t ordinal = 0;
  PayloadView data;
};

/// One worker's contiguous id range [begin, end) and everything it owns.
/// Records are double-buffered by round parity: round r writes side r & 1,
/// and every range reads the other side, sealed before the last barrier.
struct EngineRange {
  std::size_t index = 0;
  NodeId begin = 0;
  NodeId end = 0;
  /// Transmissions count at the sender's range; receptions, drops and
  /// retransmissions at the receiver's. Folded into the engine at run end.
  SimStats stats;
  bool finished = false;  ///< every local agent finished() after the last step
  bool pending = false;   ///< the last step recorded something to deliver

  PayloadArena arena[2];
  std::vector<SendRec> log[2];      ///< broadcasts, in record order
  std::vector<NodeId> senders[2];   ///< distinct broadcasters
  std::vector<BcastRec> sealed[2];  ///< log grouped by sender, each group
                                    ///< sorted by (type, payload)
  /// Addressed sends, one box per destination range.
  std::vector<std::vector<SendRec>> sends[2];
  /// Broadcasters whose neighborhood reaches a foreign range, one box per
  /// destination range.
  std::vector<std::vector<NodeId>> notices[2];

  // Receive-side scratch, reused every round.
  std::vector<NodeId> dests;       ///< ascending receivers of this round
  std::vector<SendRec> inbox;      ///< addressed sends to this range, sorted
                                   ///< by (to, sender, type, payload)
  std::vector<std::uint32_t> stamp;  ///< receiver dedup marks, local index
  std::uint32_t epoch = 0;
  std::vector<BcastRec> merge;     ///< same-sender broadcast + send merge
  obs::LocalHistogram inbox_sizes;

  bool owns(NodeId v) const noexcept { return v - begin < end - begin; }
};

}  // namespace detail

namespace {

using detail::BcastRec;
using detail::SendRec;

bool by_type_payload(const BcastRec& a, const BcastRec& b) {
  return std::tie(a.type, a.data) < std::tie(b.type, b.data);
}

bool by_receiver(const SendRec& a, const SendRec& b) {
  return std::tie(a.to, a.sender, a.type, a.data) <
         std::tie(b.to, b.sender, b.type, b.data);
}

}  // namespace

std::size_t NodeContext::round() const noexcept { return engine_->round_; }

std::span<const NodeId> NodeContext::neighbors() const {
  return engine_->graph_->neighbors(id_);
}

void NodeContext::broadcast(std::uint16_t type,
                            std::span<const std::int64_t> data) {
  engine_->record_broadcast(*range_, id_, type, data);
}

void NodeContext::send(NodeId to, std::uint16_t type,
                       std::span<const std::int64_t> data) {
  KHOP_REQUIRE(engine_->graph_->has_edge(id_, to),
               "addressed send target is not a neighbor");
  engine_->record_send(*range_, id_, to, type, data);
}

SyncEngine::SyncEngine(const Graph& g, const AgentFactory& factory,
                       const DeliveryOptions& delivery)
    : graph_(&g), delivery_(delivery), factory_(factory) {
  KHOP_REQUIRE(static_cast<bool>(factory_), "agent factory required");
  create_agents();
}

SyncEngine::~SyncEngine() = default;

void SyncEngine::create_agents() {
  agents_.resize(graph_->num_nodes());
  for (NodeId v = 0; v < agents_.size(); ++v) {
    agents_[v] = factory_(v);
    KHOP_REQUIRE(agents_[v] != nullptr, "factory returned null agent");
  }
}

NodeAgent& SyncEngine::agent(NodeId v) {
  KHOP_REQUIRE(v < agents_.size(), "node out of range");
  return *agents_[v];
}

const NodeAgent& SyncEngine::agent(NodeId v) const {
  KHOP_REQUIRE(v < agents_.size(), "node out of range");
  return *agents_[v];
}

void SyncEngine::reset_for_run(std::size_t num_ranges) {
  // Re-entry: fresh agents so every run is an independent execution.
  if (ran_) create_agents();
  ran_ = true;
  round_ = 0;
  stats_ = SimStats{};
  const std::size_t n = graph_->num_nodes();
  for (unsigned side = 0; side < 2; ++side) {
    bcast_count_[side].assign(n, 0);
    bcast_first_[side].resize(n);
  }
  cursor_.resize(n);
  tx_.assign(n, TxCount{});
  // Everything is cleared, not just the live side: a handler exception in
  // an earlier run may have left any range mid-step.
  ranges_.resize(num_ranges);
  for (std::size_t i = 0; i < num_ranges; ++i) {
    Range& r = ranges_[i];
    r.index = i;
    r.begin = static_cast<NodeId>(n * i / num_ranges);
    r.end = static_cast<NodeId>(n * (i + 1) / num_ranges);
    r.stats = SimStats{};
    r.finished = false;
    r.pending = false;
    for (unsigned side = 0; side < 2; ++side) {
      r.arena[side].clear();
      r.log[side].clear();
      r.senders[side].clear();
      r.sends[side].resize(num_ranges);
      for (std::vector<SendRec>& box : r.sends[side]) box.clear();
      r.notices[side].resize(num_ranges);
      for (std::vector<NodeId>& box : r.notices[side]) box.clear();
    }
    r.stamp.assign(r.end - r.begin, 0);
    r.epoch = 0;
    r.inbox_sizes.clear();
  }
}

std::size_t SyncEngine::range_of(NodeId v) const {
  // Ranges tile [0, n) in order: the owner is the first one ending past v.
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), v,
      [](NodeId x, const Range& r) { return x < r.end; });
  return static_cast<std::size_t>(it - ranges_.begin());
}

std::uint32_t SyncEngine::next_ordinal(NodeId from) {
  TxCount& tx = tx_[from];
  const auto round = static_cast<std::uint32_t>(round_);
  if (tx.round != round) tx = TxCount{round, 0};
  return tx.count++;
}

void SyncEngine::record_broadcast(Range& r, NodeId from, std::uint16_t type,
                                  std::span<const std::int64_t> data) {
  r.stats.note_transmission(data.size());
  const std::uint32_t ordinal = next_ordinal(from);
  // A broadcast with no receivers is a radio transmission (counted above)
  // but schedules nothing: recording it would keep the write side non-empty
  // and cost an extra round the reference engine never runs.
  const std::span<const NodeId> nbrs = graph_->neighbors(from);
  if (nbrs.empty()) return;
  const unsigned w = round_ & 1u;
  if (bcast_count_[w][from]++ == 0) {
    r.senders[w].push_back(from);
    // Adjacency is ascending and ranges are contiguous, so the two ends
    // tell whether the neighborhood crosses the cut. If it does, notify
    // each foreign range it reaches, once per round.
    if (!r.owns(nbrs.front()) || !r.owns(nbrs.back())) {
      std::size_t q = range_of(nbrs.front());
      std::size_t told = r.index;
      for (NodeId v : nbrs) {
        while (v >= ranges_[q].end) ++q;
        if (q != told && q != r.index) {
          r.notices[w][q].push_back(from);
          told = q;
        }
      }
    }
  }
  // One materialization per broadcast: every receiver reads these words.
  r.log[w].push_back(
      SendRec{kInvalidNode, from, type, ordinal, r.arena[w].intern(data)});
}

void SyncEngine::record_send(Range& r, NodeId from, NodeId to,
                             std::uint16_t type,
                             std::span<const std::int64_t> data) {
  r.stats.note_transmission(data.size());
  const std::uint32_t ordinal = next_ordinal(from);
  const unsigned w = round_ & 1u;
  const std::size_t q = r.owns(to) ? r.index : range_of(to);
  r.sends[w][q].push_back(
      SendRec{to, from, type, ordinal, r.arena[w].intern(data)});
}

void SyncEngine::gather(Range& r, unsigned read) {
  if (r.epoch == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(r.stamp.begin(), r.stamp.end(), 0);
    r.epoch = 0;
  }
  ++r.epoch;
  r.dests.clear();
  const auto mark = [&r](NodeId v) {
    std::uint32_t& s = r.stamp[v - r.begin];
    if (s != r.epoch) {
      s = r.epoch;
      r.dests.push_back(v);
    }
  };
  // A sender's in-range neighbors are one run of its ascending adjacency:
  // each range walks only its own share of a cut-crossing neighborhood.
  const auto reach = [&](NodeId s) {
    const std::span<const NodeId> nbrs = graph_->neighbors(s);
    auto it = r.owns(nbrs.front())
                  ? nbrs.begin()
                  : std::lower_bound(nbrs.begin(), nbrs.end(), r.begin);
    for (; it != nbrs.end() && *it < r.end; ++it) mark(*it);
  };

  // Receivers: every local or notifying broadcaster's in-range neighbors,
  // plus every addressed destination.
  for (NodeId s : r.senders[read]) reach(s);
  r.inbox.clear();
  for (const Range& q : ranges_) {
    if (&q != &r) {
      for (NodeId s : q.notices[read][r.index]) reach(s);
    }
    const std::vector<SendRec>& box = q.sends[read][r.index];
    r.inbox.insert(r.inbox.end(), box.begin(), box.end());
  }
  std::sort(r.inbox.begin(), r.inbox.end(), by_receiver);
  for (const SendRec& m : r.inbox) mark(m.to);
  std::sort(r.dests.begin(), r.dests.end());
}

bool SyncEngine::survives(SimStats& st, LinkAttempt a) const {
  for (;; ++a.attempt) {
    if (delivery_.model->delivers(a)) return true;
    if (a.attempt >= delivery_.retry_budget) {
      ++st.drops;
      return false;
    }
    ++st.retransmissions;
  }
}

void SyncEngine::deliver_to(Range& r, NodeId d, unsigned read,
                            std::size_t& cursor) {
  // d's addressed sends: a run of the (to, sender, ...)-sorted inbox.
  const SendRec* sd = r.inbox.data() + cursor;
  std::size_t ns = 0;
  while (cursor < r.inbox.size() && r.inbox[cursor].to == d) {
    ++cursor;
    ++ns;
  }
  NodeAgent& agent = *agents_[d];
  NodeContext ctx(*this, r, d);
  const std::uint32_t* counts = bcast_count_[read].data();
  const BcastRec* const* firsts = bcast_first_[read].data();
  const std::size_t sent = round_ - 1;
  const std::size_t rx0 = r.stats.receptions;
  const auto hand = [&](NodeId s, std::uint16_t type, std::uint32_t ordinal,
                        PayloadView data) {
    if (delivery_.model != nullptr &&
        !survives(r.stats, LinkAttempt{sent, s, d, ordinal, 0})) {
      return;
    }
    ++r.stats.receptions;
    agent.on_message(ctx, Message{s, type, data});
  };

  std::size_t si = 0;
  for (NodeId s : graph_->neighbors(d)) {
    // sd is sorted by sender and every send sender is a neighbor of d, so
    // walking d's ascending adjacency consumes it in one pass. firsts[s] is
    // only meaningful when the count is non-zero.
    const std::uint32_t cnt = counts[s];
    const std::size_t s_begin = si;
    while (si < ns && sd[si].sender == s) ++si;
    if (si == s_begin) {
      const BcastRec* bs = cnt != 0 ? firsts[s] : nullptr;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        hand(s, bs[i].type, bs[i].ordinal, bs[i].data);
      }
      continue;
    }
    if (cnt == 0) {
      for (std::size_t i = s_begin; i < si; ++i) {
        hand(s, sd[i].type, sd[i].ordinal, sd[i].data);
      }
      continue;
    }
    // Rare: s both broadcast and addressed d this round; merge the two
    // (type, payload)-sorted groups.
    r.merge.assign(firsts[s], firsts[s] + cnt);
    for (std::size_t i = s_begin; i < si; ++i) {
      r.merge.push_back(BcastRec{sd[i].type, sd[i].ordinal, sd[i].data});
    }
    std::sort(r.merge.begin(), r.merge.end(), by_type_payload);
    for (const BcastRec& m : r.merge) hand(s, m.type, m.ordinal, m.data);
  }
  KHOP_ASSERT(si == ns, "send from non-neighbor in inbox assembly");
  r.inbox_sizes.record(r.stats.receptions - rx0);
}

void SyncEngine::seal(Range& r, unsigned side) {
  // Counting scatter of the log into per-sender groups (the counts were
  // kept at record time), then a (type, payload) sort per group: record
  // order is a handler artifact, the canonical inbox order is not.
  std::uint32_t ofs = 0;
  for (NodeId s : r.senders[side]) {
    cursor_[s] = ofs;
    ofs += bcast_count_[side][s];
  }
  std::vector<BcastRec>& sealed = r.sealed[side];
  sealed.resize(r.log[side].size());
  for (const SendRec& e : r.log[side]) {
    sealed[cursor_[e.sender]++] = BcastRec{e.type, e.ordinal, e.data};
  }
  for (NodeId s : r.senders[side]) {
    BcastRec* last = sealed.data() + cursor_[s];
    BcastRec* first = last - bcast_count_[side][s];
    if (last - first > 1) std::sort(first, last, by_type_payload);
    bcast_first_[side][s] = first;
  }
  r.pending = !r.log[side].empty() ||
              std::any_of(r.sends[side].begin(), r.sends[side].end(),
                          [](const auto& box) { return !box.empty(); });
}

void SyncEngine::step(Range& r, bool deliver) {
  const unsigned write = round_ & 1u;
  // The write side was last read during the previous round, which every
  // range has finished: its records, notices and arena are dead.
  for (NodeId s : r.senders[write]) bcast_count_[write][s] = 0;
  r.senders[write].clear();
  r.log[write].clear();
  r.arena[write].clear();
  for (std::vector<SendRec>& box : r.sends[write]) box.clear();
  for (std::vector<NodeId>& box : r.notices[write]) box.clear();

  if (deliver) {
    const unsigned read = write ^ 1u;
    gather(r, read);
    std::size_t cursor = 0;
    for (NodeId d : r.dests) deliver_to(r, d, read, cursor);
    for (NodeId v = r.begin; v < r.end; ++v) {
      NodeContext ctx(*this, r, v);
      agents_[v]->on_round_end(ctx);
    }
  } else {
    for (NodeId v = r.begin; v < r.end; ++v) {
      NodeContext ctx(*this, r, v);
      agents_[v]->on_start(ctx);
    }
  }

  seal(r, write);
  r.finished = std::all_of(
      agents_.begin() + r.begin, agents_.begin() + r.end,
      [](const std::unique_ptr<NodeAgent>& a) { return a->finished(); });
}

bool SyncEngine::run(std::size_t max_rounds) {
  return run_impl(max_rounds, nullptr);
}

bool SyncEngine::run(std::size_t max_rounds, ThreadPool& pool) {
  return run_impl(max_rounds, &pool);
}

bool SyncEngine::run_impl(std::size_t max_rounds, ThreadPool* pool) {
  reset_for_run(pool != nullptr ? pool->num_threads() : 1);

  // Observational only: spans and histograms never feed back into delivery
  // order or agent state, so the run is bit-identical with telemetry on or
  // off.
  obs::Span run_span("engine/run");

  // One step per range, concurrent under a pool. A step writes only its own
  // range's records and its own nodes' per-node entries; it reads other
  // ranges' records only from the side sealed before this barrier.
  const auto each_range = [&](bool deliver) {
    if (pool == nullptr) {
      step(ranges_.front(), deliver);
      return;
    }
    parallel_for_throwing(*pool, ranges_.size(), [&](std::size_t i) {
      obs::Span span("engine/range");
      span.arg("range", static_cast<std::int64_t>(i));
      step(ranges_[i], deliver);
    });
  };
  const auto quiet = [&] {
    return std::all_of(ranges_.begin(), ranges_.end(), [](const Range& r) {
      return r.finished && !r.pending;
    });
  };
  const auto totals = [&] {
    std::size_t rx = 0;
    std::size_t tx = 0;
    for (const Range& r : ranges_) {
      rx += r.stats.receptions;
      tx += r.stats.transmissions;
    }
    return std::pair<std::size_t, std::size_t>(rx, tx);
  };

  each_range(false);

  bool quiesced = false;
  while (round_ < max_rounds) {
    // Quiescence check at the round boundary.
    if (quiet()) {
      quiesced = true;
      break;
    }

    ++round_;
    ++stats_.rounds;
    obs::Span round_span("engine/round");
    const auto [rx0, tx0] = totals();
    each_range(true);
    const auto [rx1, tx1] = totals();
    round_span.arg("delivered", static_cast<std::int64_t>(rx1 - rx0));
    round_span.arg("sent", static_cast<std::int64_t>(tx1 - tx0));
  }

  const bool done = quiesced || quiet();
  obs::LocalHistogram inbox_sizes;
  for (Range& r : ranges_) {
    stats_.transmissions += r.stats.transmissions;
    stats_.receptions += r.stats.receptions;
    stats_.payload_words += r.stats.payload_words;
    stats_.drops += r.stats.drops;
    stats_.retransmissions += r.stats.retransmissions;
    inbox_sizes.merge(r.inbox_sizes);
  }
  if (obs::enabled()) {
    inbox_sizes.flush(obs::Registry::global().histogram("engine.inbox_size"));
    stats_.publish();
  }
  run_span.arg("ranges", static_cast<std::int64_t>(ranges_.size()));
  run_span.arg("rounds", static_cast<std::int64_t>(stats_.rounds));
  run_span.arg("transmissions",
               static_cast<std::int64_t>(stats_.transmissions));
  run_span.arg("receptions", static_cast<std::int64_t>(stats_.receptions));
  run_span.arg("quiesced", done ? 1 : 0);
  return done;
}

void SimStats::publish() const {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("engine.runs").inc();
  reg.counter("engine.rounds").add(rounds);
  reg.counter("engine.transmissions").add(transmissions);
  reg.counter("engine.receptions").add(receptions);
  reg.counter("engine.payload_words").add(payload_words);
  reg.counter("engine.drops").add(drops);
  reg.counter("engine.retransmissions").add(retransmissions);
}

}  // namespace khop
