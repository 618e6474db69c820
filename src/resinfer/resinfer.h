// Umbrella header: the public API of the resinfer library.
//
// Layers (see DESIGN.md):
//   util/    — aligned buffers, RNG, timers, parallel-for
//   simd/    — distance kernels (scalar + AVX2, runtime-switchable)
//   linalg/  — matrix, eigen/SVD, PCA, random rotations
//   data/    — dataset container, fvecs/ivecs/bvecs I/O, synthetic proxies,
//              ground truth, recall metrics
//   quant/   — k-means, PQ, OPQ
//   index/   — DistanceComputer plug-in interface, Flat / IVF / HNSW
//   core/    — the paper's contribution: ADSampling, DDCres, DDCpca,
//              DDCopq, FINGER baseline, MethodFactory
//   serve/   — online serving: FIFO worker executor, coalescing
//              admission (IvfServer)
#ifndef RESINFER_RESINFER_H_
#define RESINFER_RESINFER_H_

#include "core/ad_sampling.h"
#include "core/ddc_any.h"
#include "core/ddc_opq.h"
#include "core/ddc_pca.h"
#include "core/ddc_res.h"
#include "core/ddc_rq_cascade.h"
#include "core/error_model.h"
#include "core/finger.h"
#include "core/linear_corrector.h"
#include "core/method_advisor.h"
#include "core/method_factory.h"
#include "core/training_data.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/metric.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "data/vec_io.h"
#include "index/batch.h"
#include "index/distance_computer.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "linalg/covariance.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/orthogonal.h"
#include "linalg/pca.h"
#include "linalg/svd.h"
#include "linalg/vector_ops.h"
#include "quant/code_store.h"
#include "quant/kmeans.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "quant/rq.h"
#include "quant/sq.h"
#include "serve/admission.h"
#include "serve/executor.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/aligned_buffer.h"
#include "util/histogram.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

#endif  // RESINFER_RESINFER_H_
