#include "dc/campaign_runner.hpp"

#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/timer.hpp"
#include "util/work_steal.hpp"

namespace ww::dc {

namespace {

/// Scenario stream: child of the campaign seed by index, then by label, so
/// streams stay decoupled even when labels repeat across groups.
util::Rng scenario_rng(const CampaignConfig& config, std::size_t index,
                       const Scenario& s) {
  return util::Rng(config.seed)
      .child(static_cast<std::uint64_t>(index))
      .child(s.group + "/" + s.label);
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config)) {}

CampaignRunner& CampaignRunner::add(Scenario scenario) {
  if (!scenario.run)
    throw std::invalid_argument("CampaignRunner: scenario '" + scenario.label +
                                "' has no body");
  scenarios_.push_back(std::move(scenario));
  return *this;
}

CampaignRunner& CampaignRunner::add(
    std::string label, std::function<CampaignResult(ScenarioContext&)> run) {
  return add({/*group=*/"", std::move(label), /*baseline=*/false,
              std::move(run)});
}

CampaignRunner& CampaignRunner::add_baseline(
    std::string group, std::string label,
    std::function<CampaignResult(ScenarioContext&)> run) {
  return add({std::move(group), std::move(label), /*baseline=*/true,
              std::move(run)});
}

std::vector<ScenarioOutcome> CampaignRunner::run_all() {
  obs::Span campaign_span("campaign");
  campaign_span.arg("scenarios", scenarios_.size());
  std::vector<ScenarioOutcome> outcomes(scenarios_.size());
  const auto run_one = [&](std::size_t i) {
    const Scenario& s = scenarios_[i];
    obs::Span scenario_span("scenario");
    scenario_span.arg("index", i);
    ScenarioContext ctx{i, scenario_rng(config_, i, s)};
    const util::Stopwatch watch;
    CampaignResult result = s.run(ctx);
    outcomes[i] = {s.group, s.label, s.baseline, std::move(result),
                   watch.elapsed_seconds()};
  };

  // Scenarios fan onto the process-global work-stealing pool — the same
  // pool the schedulers inside them use for chunk solves, so a campaign of
  // K scenarios × C chunks shares one set of workers instead of
  // oversubscribing K·C threads across nested pools (jobs == 1 runs them
  // inline, in order).  Outcome slots are written by add() index, so
  // stealing never reorders results.
  util::global_parallel_for(config_.jobs, scenarios_.size(), run_one);
  return outcomes;
}

util::Table CampaignRunner::aggregate(
    const std::vector<ScenarioOutcome>& outcomes) {
  bool grouped = false;
  for (const auto& o : outcomes) grouped |= !o.group.empty();

  std::vector<std::string> headers;
  if (grouped) headers.push_back("Group");
  for (const char* h : {"Scenario", "Jobs", "Carbon kg", "Water kL",
                        "Cost USD", "Service norm", "Violations %",
                        "Carbon saving %", "Water saving %"})
    headers.emplace_back(h);
  util::Table table(std::move(headers));

  for (const auto& o : outcomes) {
    // The group baseline, if any, is the savings reference for this row.
    const ScenarioOutcome* base = nullptr;
    for (const auto& b : outcomes)
      if (b.baseline && b.group == o.group) {
        base = &b;
        break;
      }

    std::vector<std::string> row;
    if (grouped) row.push_back(o.group);
    const CampaignResult& r = o.result;
    row.push_back(o.label);
    row.push_back(std::to_string(r.num_jobs));
    row.push_back(util::Table::fixed(r.total_carbon_g / 1e3, 2));
    row.push_back(util::Table::fixed(r.total_water_l / 1e3, 2));
    row.push_back(util::Table::fixed(r.total_cost_usd, 2));
    row.push_back(util::Table::fixed(r.mean_service_norm(), 3));
    row.push_back(util::Table::fixed(r.violation_pct(), 2));
    if (base != nullptr && base != &o) {
      row.push_back(util::Table::fixed(r.carbon_saving_pct_vs(base->result), 2));
      row.push_back(util::Table::fixed(r.water_saving_pct_vs(base->result), 2));
    } else {
      row.emplace_back(base == &o ? "(baseline)" : "-");
      row.emplace_back(base == &o ? "(baseline)" : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

CampaignResult CampaignRunner::merged_totals(
    const std::vector<ScenarioOutcome>& outcomes) {
  CampaignResult total;
  total.scheduler_name = "campaign";
  for (const auto& o : outcomes) {
    const CampaignResult& r = o.result;
    total.num_jobs += r.num_jobs;
    total.total_carbon_g += r.total_carbon_g;
    total.total_water_l += r.total_water_l;
    total.transfer_carbon_g += r.transfer_carbon_g;
    total.transfer_water_l += r.transfer_water_l;
    total.embodied_carbon_g += r.embodied_carbon_g;
    total.embodied_water_l += r.embodied_water_l;
    total.total_cost_usd += r.total_cost_usd;
    total.violations += r.violations;
    total.decision_seconds_total += r.decision_seconds_total;
  }
  return total;
}

}  // namespace ww::dc
