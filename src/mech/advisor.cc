#include "mech/advisor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/privacy_math.h"
#include "mech/calm.h"
#include "mech/hdg.h"

namespace ldp {

namespace {

/// ceil(log_b m), at least 1 for ordinals; categorical hierarchies have
/// height 1. Delegates to the overflow-safe shared helper rather than
/// repeating the power loop (the naive loop wraps for domains near 2^64).
int HierarchyHeight(const Attribute& attr, uint32_t fanout) {
  if (attr.kind == AttributeKind::kSensitiveCategorical) return 1;
  return CeilLogB(fanout, std::max<uint64_t>(attr.domain_size, 1));
}

/// Pieces a range on this dimension typically decomposes into: half the
/// worst case 2(b-1)h, but never more pieces than the range has values.
double TypicalPieces(const Attribute& attr, uint32_t fanout,
                     double per_dim_fraction) {
  if (attr.kind == AttributeKind::kSensitiveCategorical) return 1.0;
  const double worst = 2.0 * (fanout - 1) * HierarchyHeight(attr, fanout);
  const double len = std::max(
      1.0, per_dim_fraction * static_cast<double>(attr.domain_size));
  return std::min(worst / 2.0, len);
}

/// Second moment E[c(A)^2] of the SC conjunctive factor for one dimension at
/// per-report budget eps': q(1-q)/(p-q)^2 + O(1) (Prop. 10's variance seed).
double ConjunctiveFactor(double eps_per_report) {
  const uint32_t g = OptimalOlhG(eps_per_report);
  const double p = OlhP(eps_per_report, g);
  const double q = OlhQ(g);
  return q * (1.0 - q) / ((p - q) * (p - q)) + 1.0;
}

/// The workload-shape quantities every proxy is built from.
struct WorkloadShape {
  int d = 0;                       // sensitive dimensions
  int dq = 1;                      // queried dimensions, clamped to [1, d]
  double vol = 0.0;                // query volume, clamped to (0, 1]
  double per_dim_fraction = 0.0;   // vol^(1/dq): per-dim range fraction
  double query_pieces = 1.0;       // Π typical pieces over the dq widest dims
  double cross_product = 1.0;      // Π m_i
  int total_levels_sum = 0;        // SC: sum of heights
  double level_tuples = 1.0;       // HIO: product of (h_i + 1)
  double fo_noise = 0.0;           // Lemma 3 seed 4 e^eps / (e^eps - 1)^2
};

WorkloadShape DeriveShape(const Schema& schema, const MechanismParams& params,
                          const WorkloadProfile& workload) {
  const auto& dims = schema.sensitive_dims();
  LDP_CHECK(!dims.empty());
  WorkloadShape shape;
  shape.d = static_cast<int>(dims.size());
  shape.dq = std::clamp(workload.query_dims, 1, shape.d);
  // Per-dimension hierarchy shapes; sort descending so the widest (most
  // pieces) d_q dimensions bound the query decomposition.
  shape.vol = std::clamp(workload.query_volume, 1e-12, 1.0);
  shape.per_dim_fraction = std::pow(shape.vol, 1.0 / shape.dq);
  std::vector<double> pieces;
  for (const int attr_index : dims) {
    const Attribute& attr = schema.attribute(attr_index);
    pieces.push_back(
        TypicalPieces(attr, params.fanout, shape.per_dim_fraction));
    shape.cross_product *= static_cast<double>(attr.domain_size);
    shape.total_levels_sum += HierarchyHeight(attr, params.fanout);
    shape.level_tuples *= HierarchyHeight(attr, params.fanout) + 1.0;
  }
  std::sort(pieces.rbegin(), pieces.rend());
  for (int i = 0; i < shape.dq; ++i) shape.query_pieces *= pieces[i];
  // All proxies are variances per unit M2_T, using the exact leading noise
  // terms (the theorem statements' closed-form bounds are loose by ~e^eps at
  // large eps, which would skew the comparison against exact formulas).
  const double e = std::exp(params.epsilon);
  shape.fo_noise = 4.0 * e / ((e - 1.0) * (e - 1.0));
  return shape;
}

}  // namespace

MechanismAdvice AdviseMechanism(const Schema& schema,
                                const MechanismParams& params,
                                const WorkloadProfile& workload) {
  // Candidate order MG, SC, HIO reproduces the Section 5.4 tie-breaks: MG
  // wins ties with both, SC wins a tie with HIO.
  constexpr MechanismKind kCandidates[] = {
      MechanismKind::kMg, MechanismKind::kSc, MechanismKind::kHio};
  const std::vector<MechanismScore> scores =
      ScoreMechanisms(schema, params, workload, kCandidates);
  MechanismAdvice advice;
  advice.mg_variance = scores[0].variance;
  advice.sc_variance = scores[1].variance;
  advice.hio_variance = scores[2].variance;
  advice.recommended = ChooseMechanism(scores);

  const WorkloadShape shape = DeriveShape(schema, params, workload);
  const double covered_cells = shape.vol * shape.cross_product;
  std::ostringstream why;
  switch (advice.recommended) {
    case MechanismKind::kMg:
      why << "vol(q) = " << workload.query_volume << " covers only ~"
          << covered_cells
          << " marginal cells, below the Section 5.4 crossover (eq. 33/34): "
             "the marginal baseline's linear-in-cells error beats the "
             "hierarchical decompositions here.";
      break;
    case MechanismKind::kSc:
      why << "d_q = " << shape.dq << " is small relative to d = " << shape.d
          << " (eq. 35): SC's per-dimension reports avoid HIO's "
          << shape.level_tuples
          << "-way level sampling, and the conjunctive-estimator penalty "
             "only pays for the queried dimensions.";
      break;
    default:
      why << "HIO's polylogarithmic decomposition with full-budget sampled "
             "levels (Theorem 9) dominates: MG would sum ~"
          << covered_cells << " noisy cells and SC would pay eps/"
          << shape.total_levels_sum << " per report across " << shape.d
          << " dimensions.";
      break;
  }
  advice.rationale = why.str();
  return advice;
}

std::vector<MechanismScore> ScoreMechanisms(
    const Schema& schema, const MechanismParams& params,
    const WorkloadProfile& workload,
    std::span<const MechanismKind> candidates) {
  const auto [d, dq, vol, per_dim_fraction, query_pieces, cross_product,
              total_levels_sum, level_tuples, fo_noise] =
      DeriveShape(schema, params, workload);
  const double eps = params.epsilon;
  const double geo_mean_domain = std::pow(cross_product, 1.0 / d);

  // MG (eq. 10/11): one full-budget FO estimate per covered cell, plus the
  // data term sum_cells M2(v) ~ vol * M2.
  const double mg_variance = vol * cross_product * fo_noise + vol;
  // HIO (Prop. 5 with k = level_tuples): per sub-query 4 k M2 e^eps/... noise
  // plus (2k-1) sum M2(v) ~ (2k-1) vol M2 of sampling error.
  const double hio_variance = query_pieces * level_tuples * fo_noise +
                              (2.0 * level_tuples - 1.0) * vol;

  std::vector<MechanismScore> scores;
  scores.reserve(candidates.size());
  for (const MechanismKind kind : candidates) {
    MechanismScore score;
    score.kind = kind;
    switch (kind) {
      case MechanismKind::kMg:
        score.variance = mg_variance;
        score.note = "one noisy cell per covered marginal cell (eq. 10/11)";
        break;
      case MechanismKind::kHio:
        score.variance = hio_variance;
        score.note = "full-budget level sampling over the piece set (Thm 9)";
        break;
      case MechanismKind::kHi: {
        // HI splits eps across all level tuples, so every sub-query pays
        // ~level_tuples^2 more noise than HIO's sampled full-budget report
        // (Theorem 6 vs 9); always dominated, scored for completeness.
        score.variance = hio_variance * level_tuples;
        score.note = "budget split across levels; dominated by HIO (Thm 6)";
        break;
      }
      case MechanismKind::kQuadTree:
      case MechanismKind::kHaar:
        // Space-partitioning variants of the hierarchical decomposition;
        // same leading noise shape as HIO with a constant-factor penalty
        // for their fixed (fanout-agnostic) partitioning.
        score.variance = hio_variance * 1.25;
        score.note = "hierarchical proxy with fixed-partitioning penalty";
        break;
      case MechanismKind::kSc: {
        // Prop. 10: per sub-query, the product over queried dimensions of
        // the conjunctive factors' second moments at eps' = eps / sum(h_i).
        const double eps_per_report =
            eps / static_cast<double>(total_levels_sum);
        score.variance =
            query_pieces * std::pow(ConjunctiveFactor(eps_per_report), dq) +
            vol;
        score.feasible = params.fo_kind == FoKind::kOlh;
        score.note = score.feasible
                         ? "per-dimension conjunctive reports (Prop. 10)"
                         : "requires the OLH frequency oracle";
        break;
      }
      case MechanismKind::kHdg: {
        uint32_t g1 = 2;
        uint32_t g2 = 2;
        HdgGranularities(eps, params.population_hint, d, &g1, &g2);
        const double m = d + 0.5 * d * (d - 1);
        // Touched cells on the answering grid: the range covers a
        // per_dim_fraction slice of each constrained dimension.
        const int factors = dq <= 2 ? 1 : (dq + 1) / 2;
        const double per_factor_cells =
            dq == 1 ? std::max(1.0, per_dim_fraction * g1)
                    : std::max(1.0, per_dim_fraction * g2) *
                          std::max(1.0, per_dim_fraction * g2);
        score.variance =
            factors * (per_factor_cells * m * fo_noise + (2.0 * m - 1.0) * vol);
        score.note = "coarse 1-D/2-D grids, uniformity within cells";
        break;
      }
      case MechanismKind::kCalm: {
        const int k = CalmMarginalOrder(schema);
        double m = 1.0;
        for (int i = 1; i <= k; ++i) m = m * (d - k + i) / i;
        // Sub-box cells on a covering size-k marginal: the constrained dims
        // contribute their range lengths, the rest their full domains.
        const int factors = dq <= k ? 1 : (dq + k - 1) / k;
        const int covered = std::min(dq, k);
        double per_factor_cells =
            std::pow(std::max(1.0, per_dim_fraction * geo_mean_domain),
                     covered) *
            std::pow(geo_mean_domain, k - covered);
        per_factor_cells = std::max(1.0, per_factor_cells);
        score.variance =
            factors * (per_factor_cells * m * fo_noise + (2.0 * m - 1.0) * vol);
        score.note = "full-resolution size-" + std::to_string(k) +
                     " marginals, exact cell boundaries";
        break;
      }
    }
    scores.push_back(std::move(score));
  }
  return scores;
}

MechanismKind ChooseMechanism(std::span<const MechanismScore> scores) {
  LDP_CHECK(!scores.empty());
  int best = -1;
  for (int i = 0; i < static_cast<int>(scores.size()); ++i) {
    if (!scores[i].feasible) continue;
    if (best < 0 || scores[i].variance < scores[best].variance) best = i;
  }
  return scores[best < 0 ? 0 : best].kind;
}

}  // namespace ldp
