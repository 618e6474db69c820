#include "core/finger.h"

#include <algorithm>
#include <cmath>

#include "core/error_model.h"
#include "linalg/eigen.h"
#include "linalg/vector_ops.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace resinfer::core {

int64_t FingerArtifacts::ExtraBytes() const {
  int64_t bytes = static_cast<int64_t>(basis.size()) * sizeof(float);
  for (std::size_t u = 0; u < edge_ids.size(); ++u) {
    bytes += static_cast<int64_t>(edge_ids[u].size()) * sizeof(int64_t);
    bytes += static_cast<int64_t>(edge_coeffs[u].size()) * sizeof(float);
    bytes += static_cast<int64_t>(edge_residuals[u].size()) * sizeof(float);
    bytes += static_cast<int64_t>(edge_norms_sqr[u].size()) * sizeof(float);
  }
  return bytes;
}

FingerArtifacts BuildFingerArtifacts(const linalg::Matrix& base,
                                     const index::HnswIndex& graph,
                                     const linalg::Matrix& train_queries,
                                     const FingerOptions& options) {
  RESINFER_CHECK(options.rank >= 1);
  const int64_t n = base.rows();
  const int64_t d = base.cols();
  RESINFER_CHECK(graph.size() == n);
  WallTimer timer;

  FingerArtifacts artifacts;
  artifacts.rank = options.rank;
  const int r = options.rank;
  artifacts.basis.assign(static_cast<std::size_t>(n) * r * d, 0.0f);
  artifacts.edge_ids.resize(n);
  artifacts.edge_coeffs.resize(n);
  artifacts.edge_residuals.resize(n);
  artifacts.edge_norms_sqr.resize(n);

  ParallelForEach(n, [&](int64_t u, int /*thread*/) {
    int count = 0;
    const int32_t* links = graph.NeighborsAtBase(u, &count);
    if (count == 0) return;

    // Residual matrix (count x d).
    linalg::Matrix residuals(count, d);
    const float* u_vec = base.Row(u);
    for (int i = 0; i < count; ++i) {
      linalg::Subtract(base.Row(links[i]), u_vec, residuals.Row(i),
                       static_cast<std::size_t>(d));
    }

    // Top-r principal directions of the residual span from the Gram
    // matrix: G = Res Res^T, G w = lambda w  =>  b = Res^T w / sqrt(lambda)
    // is a unit principal direction in data space.
    linalg::Matrix gram(count, count);
    for (int i = 0; i < count; ++i) {
      for (int j = i; j < count; ++j) {
        float g = simd::InnerProduct(residuals.Row(i), residuals.Row(j),
                                     static_cast<std::size_t>(d));
        gram.At(i, j) = g;
        gram.At(j, i) = g;
      }
    }
    linalg::SymmetricEigenResult eig = linalg::SymmetricEigen(gram);

    float* node_basis = artifacts.basis.data() +
                        static_cast<std::size_t>(u) * r * d;
    const int effective = std::min(r, count);
    const double tol = std::max(1e-10, eig.eigenvalues[0] * 1e-7);
    for (int j = 0; j < effective; ++j) {
      if (eig.eigenvalues[j] <= tol) break;
      const double inv = 1.0 / std::sqrt(eig.eigenvalues[j]);
      float* row = node_basis + static_cast<std::size_t>(j) * d;
      for (int i = 0; i < count; ++i) {
        simd::Axpy(static_cast<float>(eig.eigenvectors.At(j, i) * inv),
                   residuals.Row(i), row, static_cast<std::size_t>(d));
      }
    }

    // Per-edge coefficients and residual energies.
    auto& ids = artifacts.edge_ids[u];
    auto& coeffs = artifacts.edge_coeffs[u];
    auto& res_energy = artifacts.edge_residuals[u];
    auto& norms = artifacts.edge_norms_sqr[u];
    ids.assign(links, links + count);
    coeffs.assign(static_cast<std::size_t>(count) * r, 0.0f);
    res_energy.assign(count, 0.0f);
    norms.assign(count, 0.0f);
    for (int i = 0; i < count; ++i) {
      const float* res = residuals.Row(i);
      float norm_sqr = simd::Norm2Sqr(res, static_cast<std::size_t>(d));
      norms[i] = norm_sqr;
      float coeff_sqr = 0.0f;
      for (int j = 0; j < r; ++j) {
        float c = simd::InnerProduct(
            res, node_basis + static_cast<std::size_t>(j) * d,
            static_cast<std::size_t>(d));
        coeffs[static_cast<std::size_t>(i) * r + j] = c;
        coeff_sqr += c * c;
      }
      res_energy[i] = std::max(0.0f, norm_sqr - coeff_sqr);
    }
  });

  // Calibrate the residual-term constant on training queries: collect the
  // unmodeled inner product normalized by sqrt(res_q * res_v).
  std::vector<double> normalized;
  Rng rng(options.seed);
  const int64_t cal_queries =
      std::min<int64_t>(options.calibration_queries, train_queries.rows());
  std::vector<float> diff(d);
  std::vector<float> proj(r);
  for (int64_t qi = 0; qi < cal_queries; ++qi) {
    const float* q = train_queries.Row(qi);
    for (int trial = 0; trial < 8; ++trial) {
      int64_t u = static_cast<int64_t>(rng.UniformInt(n));
      const auto& ids = artifacts.edge_ids[u];
      if (ids.empty()) continue;
      linalg::Subtract(q, base.Row(u), diff.data(),
                       static_cast<std::size_t>(d));
      const float* node_basis = artifacts.basis.data() +
                                static_cast<std::size_t>(u) * r * d;
      float proj_sqr = 0.0f;
      for (int j = 0; j < r; ++j) {
        proj[j] = simd::InnerProduct(diff.data(),
                                     node_basis +
                                         static_cast<std::size_t>(j) * d,
                                     static_cast<std::size_t>(d));
        proj_sqr += proj[j] * proj[j];
      }
      float q_energy = std::max(
          0.0f, simd::Norm2Sqr(diff.data(), static_cast<std::size_t>(d)) -
                    proj_sqr);
      for (std::size_t e = 0; e < ids.size(); ++e) {
        float denom = q_energy * artifacts.edge_residuals[u][e];
        if (denom <= 1e-12f) continue;
        // full <q-u, v-u> minus the modeled low-rank part.
        float full = simd::InnerProduct(diff.data(), base.Row(ids[e]),
                                        static_cast<std::size_t>(d)) -
                     simd::InnerProduct(diff.data(), base.Row(u),
                                        static_cast<std::size_t>(d));
        float modeled = simd::InnerProduct(
            proj.data(),
            artifacts.edge_coeffs[u].data() + e * static_cast<std::size_t>(r),
            static_cast<std::size_t>(r));
        normalized.push_back((full - modeled) / std::sqrt(denom));
      }
    }
  }
  double stddev = 0.35;  // conservative default when calibration is empty
  if (normalized.size() >= 16) {
    stddev = std::sqrt(linalg::ComputeMeanVar(normalized).variance);
  }
  artifacts.bound_scale = static_cast<float>(
      GaussianQuantileMultiplier(options.quantile) * 2.0 * stddev);
  artifacts.build_seconds = timer.ElapsedSeconds();
  return artifacts;
}

FingerComputer::FingerComputer(const linalg::Matrix* base,
                               const FingerArtifacts* artifacts)
    : base_(base), artifacts_(artifacts) {
  RESINFER_CHECK(base != nullptr && artifacts != nullptr);
  RESINFER_CHECK(artifacts->rank >= 1);
  projection_.resize(artifacts->rank);
  diff_.resize(base->cols());
}

void FingerComputer::BeginQuery(const float* query) {
  query_ = query;
  anchor_ = -1;
}

void FingerComputer::SetExpansionAnchor(int64_t node,
                                        float distance_to_node) {
  anchor_ = node;
  anchor_dist_sqr_ = distance_to_node;
  const int64_t d = base_->cols();
  const int r = artifacts_->rank;
  linalg::Subtract(query_, base_->Row(node), diff_.data(),
                   static_cast<std::size_t>(d));
  const float* node_basis =
      artifacts_->basis.data() + static_cast<std::size_t>(node) * r * d;
  float proj_sqr = 0.0f;
  for (int j = 0; j < r; ++j) {
    projection_[j] = simd::InnerProduct(
        diff_.data(), node_basis + static_cast<std::size_t>(j) * d,
        static_cast<std::size_t>(d));
    proj_sqr += projection_[j] * projection_[j];
  }
  query_residual_energy_ = std::max(0.0f, distance_to_node - proj_sqr);
}

index::EstimateResult FingerComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  ++stats_.candidates;
  if (anchor_ >= 0 && std::isfinite(tau)) {
    const auto& ids = artifacts_->edge_ids[anchor_];
    // Neighbor lists are short (<= 2M); a linear id scan is cheaper than a
    // hash lookup here.
    for (std::size_t e = 0; e < ids.size(); ++e) {
      if (ids[e] != id) continue;
      const int r = artifacts_->rank;
      const float modeled = simd::InnerProduct(
          projection_.data(),
          artifacts_->edge_coeffs[anchor_].data() +
              e * static_cast<std::size_t>(r),
          static_cast<std::size_t>(r));
      const float est = anchor_dist_sqr_ +
                        artifacts_->edge_norms_sqr[anchor_][e] -
                        2.0f * modeled;
      const float bound =
          artifacts_->bound_scale *
          std::sqrt(query_residual_energy_ *
                    artifacts_->edge_residuals[anchor_][e]);
      if (est - bound > tau) {
        ++stats_.pruned;
        return {true, std::max(0.0f, est)};
      }
      break;
    }
  }
  ++stats_.exact_computations;
  stats_.dims_scanned += dim();
  return {false, ExactDistance(id)};
}

float FingerComputer::ExactDistance(int64_t id) {
  return simd::L2Sqr(base_->Row(id), query_,
                     static_cast<std::size_t>(base_->cols()));
}

}  // namespace resinfer::core
