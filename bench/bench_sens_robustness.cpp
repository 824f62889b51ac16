// Sensitivity/robustness experiments reported in the Sec. 6 text:
//  * +-10% embodied-carbon estimation error (paper: 18%/26% savings remain)
//  * +-10% water-intensity estimation error  (paper: 28%/18% savings remain)
//  * 2x request rate                          (paper: 21.7%/10.2% savings)
// Extended beyond the paper with injected forecast-bias fault campaigns
// (env/faults.hpp): the controller observes systematically biased carbon or
// water intensities while the ledger bills the truth — a strictly stronger
// perturbation than input scaling, because decisions and accounting disagree.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Sensitivity & robustness (Sec. 6 text + fault injection)",
                "Sec. 6 robustness paragraphs");

  const double days = bench::campaign_days();
  const auto jobs = trace::generate_trace(trace::borg_config(7, days));
  auto doubled_cfg = trace::borg_config(7, days);
  doubled_cfg.rate_multiplier = 2.0;
  const auto jobs2x = trace::generate_trace(doubled_cfg);

  // Injected forecast-bias storms, generated from fixed seeds so every run
  // (and every thread count) perturbs the same windows.
  env::FaultScheduleConfig carbon_cfg;
  carbon_cfg.seed = 1207;
  carbon_cfg.horizon_seconds = days * 86400.0;
  carbon_cfg.bias_windows_per_region_day = 3.0;
  const env::FaultSchedule carbon_bias(carbon_cfg);

  env::FaultScheduleConfig water_cfg = carbon_cfg;
  water_cfg.seed = 1208;
  water_cfg.carbon_bias_min = 1.0;
  water_cfg.carbon_bias_max = 1.0;
  water_cfg.water_bias_min = 1.4;
  water_cfg.water_bias_max = 2.2;
  const env::FaultSchedule water_bias(water_cfg);

  struct Case {
    std::string label;
    const std::vector<trace::Job>* trace;
    bench::CampaignSpec spec;
  };
  std::vector<Case> cases;
  {
    bench::CampaignSpec nominal;
    nominal.tol = 0.5;
    cases.push_back({"Nominal", &jobs, nominal});

    bench::CampaignSpec emb_hi = nominal;
    emb_hi.embodied_scale = 1.10;
    cases.push_back({"Embodied carbon +10%", &jobs, emb_hi});
    bench::CampaignSpec emb_lo = nominal;
    emb_lo.embodied_scale = 0.90;
    cases.push_back({"Embodied carbon -10%", &jobs, emb_lo});

    bench::CampaignSpec wi_hi = nominal;
    wi_hi.env_config.water_intensity_scale = 1.10;
    cases.push_back({"Water intensity +10%", &jobs, wi_hi});
    bench::CampaignSpec wi_lo = nominal;
    wi_lo.env_config.water_intensity_scale = 0.90;
    cases.push_back({"Water intensity -10%", &jobs, wi_lo});

    cases.push_back({"2x request rate", &jobs2x, nominal});

    bench::CampaignSpec cb = nominal;
    cb.faults = &carbon_bias;
    cases.push_back({"Carbon forecast bias (injected)", &jobs, cb});
    bench::CampaignSpec wb = nominal;
    wb.faults = &water_bias;
    cases.push_back({"Water forecast bias (injected)", &jobs, wb});
  }

  // Shared campaign plumbing: each (case, policy) pair is an independent
  // CampaignRunner scenario; WaterWise degradation counters are captured
  // per case so the fault campaigns can report what the ladder absorbed.
  std::vector<obs::Registry> ww_regs(cases.size());
  dc::CampaignRunner runner(bench::campaign_config());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    runner.add_baseline(cases[i].label, "Baseline",
                        [&cases, i](dc::ScenarioContext&) {
                          return bench::run_policy(*cases[i].trace,
                                                   bench::Policy::Baseline,
                                                   cases[i].spec);
                        });
    runner.add({cases[i].label, "WaterWise", false,
                [&cases, &ww_regs, i](dc::ScenarioContext&) {
                  core::WaterWiseScheduler ww;
                  auto res = bench::run_campaign(*cases[i].trace, ww,
                                                 cases[i].spec);
                  ww_regs[i] = ww.registry();
                  return res;
                }});
  }
  const auto outcomes = bench::run_and_time(runner);

  util::Table table({"Perturbation", "Carbon saving %", "Water saving %",
                     "Violation %"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const dc::CampaignResult& base = outcomes[2 * i].result;
    const dc::CampaignResult& ww = outcomes[2 * i + 1].result;
    table.add_row({cases[i].label,
                   util::Table::fixed(ww.carbon_saving_pct_vs(base), 2),
                   util::Table::fixed(ww.water_saving_pct_vs(base), 2),
                   util::Table::fixed(ww.violation_pct(), 2)});
  }
  table.print(std::cout);
  std::cout << "\n";
  for (std::size_t i = 0; i < cases.size(); ++i)
    bench::print_degradation_counters(cases[i].label, ww_regs[i]);
  std::cout << "\nShape check vs. paper: savings survive every +-10% estimation\n"
               "perturbation and the doubled request rate (paper: 21.7% carbon /\n"
               "10.2% water at 2x rate).  The injected forecast-bias campaigns\n"
               "perturb the controller's observations only; the ledger above\n"
               "bills true (unbiased) intensities.\n";
  return 0;
}
