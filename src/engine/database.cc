#include "engine/database.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "algebra/plan_util.h"
#include "codegen/codegen_engine.h"
#include "codegen/install.h"
#include "engine/server.h"
#include "engine/session.h"
#include "exec/subplan_impl.h"
#include "expr/expr_util.h"
#include "frontend/translator.h"
#include "planner/cost_model.h"
#include "planner/planner.h"
#include "rewrite/classify.h"
#include "rewrite/count_distinct.h"
#include "sql/parser.h"

namespace bypass {

namespace {

/// Base-table names the plan touches, descending into nested subquery
/// blocks (VisitPlan deliberately stops at block boundaries, but stats
/// staleness cares about every table the whole query reads).
void CollectReferencedTables(const LogicalOpPtr& root,
                             std::set<std::string>* out) {
  VisitPlan(root, [out](const LogicalOpPtr& node) {
    if (node->kind() == LogicalOpKind::kGet) {
      out->insert(static_cast<const GetOp&>(*node).table_name());
    }
    for (const ExprPtr& e : NodeExpressions(*node)) {
      VisitExprMutable(e.get(), [out](Expr* expr) {
        if (expr->kind() != ExprKind::kSubquery) return;
        CollectReferencedTables(static_cast<SubqueryExpr*>(expr)->plan(),
                                out);
      });
    }
  });
}

/// Reorders every disjunction in the plan's selection predicates.
/// `subquery_first=false` puts cheap subquery-free disjuncts first so the
/// runtime's OR short-circuit skips nested blocks whenever possible (any
/// reasonable engine does this); `subquery_first=true` simulates an
/// optimizer without that shortcut. Mutates the given (private) plan.
void ReorderDisjunctions(const LogicalOpPtr& root, bool subquery_first) {
  VisitPlan(root, [subquery_first](const LogicalOpPtr& node) {
    for (const ExprPtr& e : NodeExpressions(*node)) {
      VisitExprMutable(e.get(), [subquery_first](Expr* expr) {
        if (expr->kind() != ExprKind::kOr) return;
        auto* disjunction = static_cast<OrExpr*>(expr);
        std::vector<ExprPtr> terms = disjunction->terms();
        std::stable_partition(terms.begin(), terms.end(),
                              [subquery_first](const ExprPtr& t) {
                                return ContainsSubquery(t) ==
                                       subquery_first;
                              });
        *disjunction = OrExpr(std::move(terms));
      });
    }
  });
}

/// The logical-plan half of query preparation.
struct PlannedLogical {
  LogicalOpPtr canonical;
  LogicalOpPtr optimized;
  std::vector<std::string> applied_rules;
  std::vector<std::string> key_reductions;  ///< Eqv. 1 gate decisions
  /// Groupings whose COUNT(DISTINCT *) became COUNT(*) over δ.
  std::vector<std::string> distinct_counts;
};

Result<PlannedLogical> PlanLogical(const Catalog* catalog,
                                   const std::string& sql,
                                   const QueryOptions& options) {
  BYPASS_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelect(sql));
  Translator translator(catalog);
  PlannedLogical out;
  BYPASS_ASSIGN_OR_RETURN(out.canonical, translator.Translate(*stmt));

  LogicalOpPtr working = CloneLogicalPlan(out.canonical);
  ReorderDisjunctions(working,
                      /*subquery_first=*/!options.shortcut_disjunctions);
  if (options.unnest) {
    RewriteOptions ropts = options.rewrite;
    ropts.enable_unnesting = true;
    ropts.catalog = catalog;
    UnnestingRewriter rewriter(ropts);
    LogicalOpPtr before = working;
    BYPASS_ASSIGN_OR_RETURN(working, rewriter.Rewrite(working));
    out.applied_rules = rewriter.applied_rules();
    out.key_reductions = rewriter.key_reductions();
    if (options.cost_based && working != before) {
      // Three-way choice on estimated cost: the rank-ordered rewrite
      // competes against both forced cascade shapes (Eqv. 2 / Eqv. 3)
      // and against the canonical plan. Ties keep the earlier
      // candidate, so the rank-based rewrite wins unless something is
      // strictly cheaper.
      struct Candidate {
        LogicalOpPtr plan;
        std::vector<std::string> rules;
        std::vector<std::string> key_reductions;
        double cost = 0;
        const char* label = nullptr;  ///< logged when a forced shape wins
      };
      std::vector<Candidate> candidates;
      candidates.push_back({working, out.applied_rules, out.key_reductions,
                            EstimatePlan(*working, catalog).cost,
                            nullptr});
      if (ropts.disjunct_order == DisjunctOrder::kByRank) {
        const std::pair<DisjunctOrder, const char*> forced[] = {
            {DisjunctOrder::kSimpleFirst,
             "cost-based: picked forced simple-first"},
            {DisjunctOrder::kSubqueryFirst,
             "cost-based: picked forced subquery-first"},
        };
        for (const auto& [order, label] : forced) {
          RewriteOptions fopts = ropts;
          fopts.disjunct_order = order;
          UnnestingRewriter forced_rewriter(fopts);
          BYPASS_ASSIGN_OR_RETURN(
              LogicalOpPtr plan,
              forced_rewriter.Rewrite(CloneLogicalPlan(before)));
          candidates.push_back({plan, forced_rewriter.applied_rules(),
                                forced_rewriter.key_reductions(),
                                EstimatePlan(*plan, catalog).cost,
                                label});
        }
      }
      candidates.push_back({before,
                            {"cost-based: kept canonical"},
                            {},
                            EstimatePlan(*before, catalog).cost,
                            nullptr});
      size_t best = 0;
      for (size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].cost < candidates[best].cost) best = i;
      }
      working = candidates[best].plan;
      out.applied_rules = std::move(candidates[best].rules);
      out.key_reductions = std::move(candidates[best].key_reductions);
      if (candidates[best].label != nullptr) {
        out.applied_rules.emplace_back(candidates[best].label);
      }
    }
    // On the chosen plan only: the equivalences (and the candidates'
    // costs) still see COUNT(DISTINCT *), as paper footnote 1 has it.
    working = CountDistinctOverDelta(working, &out.distinct_counts);
  }
  out.optimized = working;
  return out;
}

}  // namespace

// ---------------------------------------------------------- PreparedQuery

Result<QueryResult> PreparedQuery::Execute() { return Execute(options_); }

bool PreparedQuery::IsStale() const {
  if (db_ == nullptr) return false;
  const Catalog* catalog = db_->catalog();
  if (catalog->stats_epoch() == stats_epoch_) return false;
  for (const auto& [table, version] : table_stats_versions_) {
    if (catalog->TableStatsVersion(table) != version) return true;
  }
  return false;
}

Status PreparedQuery::ReplanIfStale() {
  // Fast path: the global epoch only moves when some table's statistics
  // change, so an equal epoch proves our plan is still current.
  const Catalog* catalog = db_->catalog();
  const uint64_t epoch = catalog->stats_epoch();
  if (epoch == stats_epoch_) return Status::OK();
  bool stale = false;
  for (const auto& [table, version] : table_stats_versions_) {
    if (catalog->TableStatsVersion(table) != version) {
      stale = true;
      break;
    }
  }
  if (!stale) {
    // Statistics moved for tables we do not read; remember the new epoch
    // so subsequent Executes take the fast path again.
    stats_epoch_ = epoch;
    return Status::OK();
  }
  BYPASS_ASSIGN_OR_RETURN(PreparedQuery fresh,
                          db_->Prepare(sql_, options_));
  // Survive the wholesale move: the replan counter accumulates across
  // re-plans, and the in-flight guard is the flag our caller (an active
  // ExecuteWith) already set and will clear — swapping in fresh's unset
  // flag would let a second Execute slip in mid-run.
  const int replans = replan_count_ + 1;
  std::shared_ptr<std::atomic<bool>> guard = in_flight_;
  *this = std::move(fresh);
  replan_count_ = replans;
  in_flight_ = std::move(guard);
  return Status::OK();
}

Result<QueryResult> PreparedQuery::Execute(
    const QueryOptions& run_options) {
  if (db_ == nullptr) {
    return Status::InvalidArgument(
        "Execute on an empty PreparedQuery (default-constructed or "
        "moved-from)");
  }
  // The embedded server builds the env exactly as for its own queries,
  // minus admission: its elastic pool grows to the requested width.
  return ExecuteWith(
      run_options,
      db_->server()->MakeEnv(
          run_options, /*priority=*/0,
          static_cast<int64_t>(run_options.memory_budget_bytes)));
}

Result<QueryResult> PreparedQuery::ExecuteWith(
    const QueryOptions& run_options, const QueryExecEnv& env) {
  if (db_ == nullptr) {
    return Status::InvalidArgument(
        "Execute on an empty PreparedQuery (default-constructed or "
        "moved-from)");
  }
  // The plan's operators and sink are shared mutable state; fail loudly
  // on concurrent entry instead of racing. Hold the guard object itself:
  // ReplanIfStale may replace every other member mid-run.
  std::shared_ptr<std::atomic<bool>> guard = in_flight_;
  bool expected = false;
  if (!guard->compare_exchange_strong(expected, true,
                                      std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "concurrent Execute on one PreparedQuery: runs are not "
        "reentrant; prepare one handle per thread or route queries "
        "through a Server session");
  }
  struct InFlightClearer {
    std::shared_ptr<std::atomic<bool>> flag;
    ~InFlightClearer() { flag->store(false, std::memory_order_release); }
  } clearer{std::move(guard)};

  BYPASS_RETURN_IF_ERROR(ReplanIfStale());
  QueryResult result;
  result.schema = plan_.output_schema;
  result.applied_rules = applied_rules_;
  result.optimize_time = optimize_time_;
  if (run_options.collect_plans) {
    result.canonical_plan = canonical_plan_;
    result.optimized_plan = optimized_plan_;
    result.physical_plan = plan_.ToString();
  }

  // One run context per execution, read by the main plan and every
  // nested subplan. Statistics always go to per-worker slots: one slot
  // when serial, summed below.
  auto run = std::make_shared<RunContext>();
  run->batch_size = std::max<size_t>(run_options.batch_size, 1);
  if (run_options.morsel_size > 0) run->morsel_size = run_options.morsel_size;
  run->columnar_enabled = run_options.enable_columnar;
  run->zone_maps_enabled = run_options.enable_zone_maps;
  if (run_options.timeout.has_value()) {
    run->deadline = std::chrono::steady_clock::now() + *run_options.timeout;
  }
  run->memory_limit = env.memory_budget_bytes;
  // One scratch-dir manager per execution: budgeted operators spill into
  // it instead of failing, and its destructor removes every temp file
  // once the query (and any subplan holding the run) is done.
  if (env.memory_budget_bytes > 0 && run_options.allow_spill) {
    run->spill = std::make_unique<SpillManager>(run_options.spill_directory);
  }
  run->worker_stats.resize(
      static_cast<size_t>(std::max(env.num_worker_slots, 1)));
  ExecContext ctx(run);
  ctx.set_pool(env.pool);
  ctx.set_task_group_options(env.sched);
  for (ExecSubplan* subplan : plan_.subplans) {
    // Fresh memo caches per run keep repeated Execute calls independent
    // (benchmark repetitions must not inherit earlier runs' caches).
    subplan->ClearCache();
    subplan->Configure(run);
  }

  const auto exec_start = std::chrono::steady_clock::now();
  BYPASS_RETURN_IF_ERROR(RunPlan(&plan_, &ctx));
  result.execution_time = std::chrono::steady_clock::now() - exec_start;
  result.stats = run->TotalStats();
  if (run_options.collect_plans) {
    result.operator_stats = plan_.StatsString();
    result.operator_feedback = CollectOperatorFeedback(plan_);
  }
  if (run_options.refresh_stats) {
    ApplyCardinalityFeedback(plan_, db_->catalog());
  }
  result.rows = plan_.sink->TakeRows();
  return result;
}

// --------------------------------------------------------------- Database

Database::Database() = default;

Database::~Database() = default;

Result<Table*> Database::CreateTable(const std::string& name,
                                     Schema schema) {
  return catalog_.CreateTable(name, std::move(schema));
}

Result<AnalyzeReport> Database::Analyze(const std::string& table_name,
                                        const AnalyzeOptions& options) {
  BYPASS_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));
  const auto start = std::chrono::steady_clock::now();
  TableStatistics stats = AnalyzeTable(*table, options);
  AnalyzeReport report;
  report.table = table->name();
  report.row_count = stats.row_count;
  std::string summary = table->name() + ": " + stats.ToString() + "\n";
  for (int i = 0; i < table->schema().num_columns(); ++i) {
    const ColumnStatistics& col = stats.columns[static_cast<size_t>(i)];
    summary += "  " + table->schema().column(i).name + ": " +
               std::to_string(col.null_count) + " nulls, ndv " +
               std::to_string(col.distinct_count);
    if (!col.min.is_null()) {
      summary += ", min " + col.min.ToString() + ", max " +
                 col.max.ToString();
    }
    if (!col.histogram.empty()) {
      summary += ", " + std::to_string(col.histogram.num_buckets()) +
                 " histogram buckets";
    }
    summary += "\n";
  }
  report.summary = std::move(summary);
  catalog_.SetTableStatistics(table->name(), std::move(stats));
  report.analyze_time = std::chrono::steady_clock::now() - start;
  return report;
}

Result<std::vector<AnalyzeReport>> Database::AnalyzeAll(
    const AnalyzeOptions& options) {
  std::vector<AnalyzeReport> reports;
  for (const std::string& name : catalog_.TableNames()) {
    BYPASS_ASSIGN_OR_RETURN(AnalyzeReport report, Analyze(name, options));
    reports.push_back(std::move(report));
  }
  return reports;
}

Server* Database::server() {
  std::call_once(server_once_, [this] {
    // Compatibility defaults: elastic pool (ask for N threads, get N),
    // admission wide enough that embedded use never queues, plan cache
    // off so standalone Query/Prepare semantics (fresh plan per call)
    // are exactly the historical ones. Dedicated servers tighten these.
    ServerOptions opts;
    opts.num_workers = 0;
    opts.max_concurrent_queries = 64;
    opts.max_pending_queries = 4096;
    opts.plan_cache_entries = 0;
    server_ = std::make_unique<Server>(this, opts);
    default_session_ = server_->Connect(/*priority=*/0);
  });
  return server_.get();
}

Session* Database::default_session() {
  server();  // ensure created
  return default_session_.get();
}

CodegenEngine* Database::codegen_engine() {
  std::call_once(codegen_once_,
                 [this] { codegen_ = std::make_unique<CodegenEngine>(); });
  return codegen_.get();
}

CodegenEngine* Database::codegen_engine_if_created() {
  return codegen_.get();
}

Result<PreparedQuery> Database::Prepare(const std::string& sql,
                                        const QueryOptions& options) {
  // Statistics discipline: snapshot the epoch *before* planning. ANALYZE
  // may publish new statistics while we plan; stamping the newer epoch
  // onto a plan costed against the older snapshot would declare it
  // permanently fresh. With the pre-planning epoch recorded, a re-read
  // after planning detects the race and we simply plan again (bounded —
  // back-to-back ANALYZE races are transient).
  PreparedQuery prepared;
  for (int attempt = 0;; ++attempt) {
    prepared = PreparedQuery();
    const uint64_t epoch_before = catalog_.stats_epoch();
    const auto optimize_start = std::chrono::steady_clock::now();
    BYPASS_ASSIGN_OR_RETURN(PlannedLogical planned,
                            PlanLogical(&catalog_, sql, options));
    PlannerOptions popts;
    popts.memoize_subqueries = options.memoize_subqueries;
    Planner planner(&catalog_, popts);
    BYPASS_ASSIGN_OR_RETURN(prepared.plan_,
                            planner.Lower(planned.optimized));
    if (options.enable_codegen) {
      // Splice compiled pipelines keyed at the pre-planning epoch: if an
      // ANALYZE races us, the retry below rebuilds the plan and resubmits
      // at the fresh epoch, and EvictStale drops the stale artifacts.
      prepared.plan_.num_compiled_pipelines = InstallCompiledPipelines(
          &prepared.plan_, codegen_engine(), options, epoch_before,
          /*plan_tag=*/CgHashSource(sql));
    }
    prepared.optimize_time_ =
        std::chrono::steady_clock::now() - optimize_start;
    prepared.db_ = this;
    prepared.options_ = options;
    prepared.applied_rules_ = std::move(planned.applied_rules);
    prepared.sql_ = sql;
    prepared.stats_epoch_ = epoch_before;
    std::set<std::string> referenced;
    CollectReferencedTables(planned.canonical, &referenced);
    for (const std::string& table : referenced) {
      prepared.table_stats_versions_.emplace_back(
          table, catalog_.TableStatsVersion(table));
    }
    if (options.collect_plans) {
      prepared.canonical_plan_ = PlanToString(*planned.canonical);
      prepared.optimized_plan_ = PlanToString(*planned.optimized);
    }
    if (catalog_.stats_epoch() == epoch_before || attempt >= 2) {
      // No ANALYZE raced the planning (or we stop chasing a stats
      // churner; the recorded pre-planning epoch keeps the staleness
      // check conservative either way).
      break;
    }
  }
  return prepared;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const QueryOptions& options) {
  // Through the embedded server's default session: same execution as
  // before, now under the shared scheduler with every other client.
  return default_session()->Query(sql, options);
}

Result<std::string> Database::Explain(const std::string& sql,
                                      const QueryOptions& options) {
  BYPASS_ASSIGN_OR_RETURN(PlannedLogical planned,
                          PlanLogical(&catalog_, sql, options));
  PlannerOptions popts;
  popts.memoize_subqueries = options.memoize_subqueries;
  Planner planner(&catalog_, popts);
  BYPASS_ASSIGN_OR_RETURN(PhysicalPlan plan,
                          planner.Lower(planned.optimized));

  std::ostringstream os;
  os << "nesting structure: "
     << NestingStructureToString(ClassifyNesting(*planned.canonical))
     << "\n";
  const PlanEstimate canonical_est =
      EstimatePlan(*planned.canonical, &catalog_);
  os << "canonical logical plan (est. " << canonical_est.rows
     << " rows, cost " << canonical_est.cost << "):\n"
     << PlanToString(*planned.canonical);
  if (options.unnest) {
    os << "applied equivalences:";
    if (planned.applied_rules.empty()) {
      os << " (none)";
    } else {
      for (const std::string& rule : planned.applied_rules) {
        os << " " << rule;
      }
    }
    os << "\n";
    for (const std::string& decision : planned.key_reductions) {
      os << decision << "\n";
    }
    for (const std::string& grouping : planned.distinct_counts) {
      os << grouping << "\n";
    }
    const PlanEstimate optimized_est =
        EstimatePlan(*planned.optimized, &catalog_);
    os << "rewritten logical plan (est. " << optimized_est.rows
       << " rows, cost " << optimized_est.cost << "):\n"
       << PlanToString(*planned.optimized);
  }
  os << plan.ToString();
  return os.str();
}

}  // namespace bypass
