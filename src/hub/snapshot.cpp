#include "hub/snapshot.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace hb::hub {

std::shared_ptr<const FleetSnapshot> FleetSnapshot::compose(
    std::vector<std::shared_ptr<const ShardSnapshot>> parts,
    util::TimeNs now_ns) {
  // make_shared needs a public constructor; the factory keeps it private.
  auto snap = std::shared_ptr<FleetSnapshot>(new FleetSnapshot());
  snap->shards_ = std::move(parts);
  snap->composed_at_ns_ = now_ns;

  // Cluster: sum the shard partials, then derive fleet-wide percentiles
  // from the merged interval histogram. O(shards), not O(apps) — the
  // per-app walk already happened once, at each shard's publish.
  ClusterSummary& sum = snap->cluster_;
  util::LatencyHistogram intervals;
  bool any_interval = false;
  std::vector<std::span<const TagSummary>> tag_runs;
  for (const auto& shard : snap->shards_) {
    snap->epoch_ += shard->epoch;
    snap->app_count_ += shard->apps.size();

    const ClusterSummary& part = shard->cluster_part;
    sum.apps += part.apps;
    sum.total_beats += part.total_beats;
    sum.window_beats += part.window_beats;
    sum.aggregate_rate_bps += part.aggregate_rate_bps;
    sum.meeting_target += part.meeting_target;
    sum.deficient += part.deficient;
    sum.warming_up += part.warming_up;
    sum.evicted += part.evicted;
    sum.last_beat_ns = std::max(sum.last_beat_ns, part.last_beat_ns);
    if (shard->intervals.count() > 0) {
      intervals.merge(shard->intervals);
      if (!any_interval) {
        sum.interval_min_ns = part.interval_min_ns;
        sum.interval_max_ns = part.interval_max_ns;
        any_interval = true;
      } else {
        sum.interval_min_ns =
            std::min(sum.interval_min_ns, part.interval_min_ns);
        sum.interval_max_ns =
            std::max(sum.interval_max_ns, part.interval_max_ns);
      }
    }
    if (!shard->tags.empty()) tag_runs.emplace_back(shard->tags);
  }
  if (any_interval) {
    // Clamp the bucketed percentiles into the window-exact [min, max], the
    // same rule the per-shard publish applies to per-app summaries.
    std::array<std::uint64_t, util::kSummaryPercentiles.size()> p{};
    intervals.percentiles(util::kSummaryPercentiles, p);
    const auto clamp = [&](std::uint64_t v) {
      return std::clamp(v, sum.interval_min_ns, sum.interval_max_ns);
    };
    sum.interval_p50_ns = clamp(p[0]);
    sum.interval_p95_ns = clamp(p[1]);
    sum.interval_p99_ns = clamp(p[2]);
  }

  // Tags: every shard's list is ascending by tag, so one merge pass over
  // the shards' heads yields the fleet list in order, summing equal tags.
  while (!tag_runs.empty()) {
    std::uint64_t tag = tag_runs.front().front().tag;
    for (const auto& run : tag_runs) tag = std::min(tag, run.front().tag);
    TagSummary acc;
    acc.tag = tag;
    for (auto& run : tag_runs) {
      if (run.front().tag != tag) continue;
      acc.beats += run.front().beats;
      acc.apps += run.front().apps;
      run = run.subspan(1);
    }
    snap->tags_.push_back(acc);
    std::erase_if(tag_runs, [](const auto& run) { return run.empty(); });
  }

  return snap;
}

const std::vector<AppSummary>& FleetSnapshot::apps_sorted() const {
  std::call_once(sorted_once_, [this] {
    sorted_.reserve(app_count_);
    for_each_app([this](const AppSummary& app) { sorted_.push_back(app); },
                 /*include_evicted=*/false);
    std::sort(sorted_.begin(), sorted_.end(),
              [](const AppSummary& a, const AppSummary& b) {
                return a.name < b.name;
              });
  });
  return sorted_;
}

}  // namespace hb::hub
