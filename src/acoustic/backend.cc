#include "acoustic/backend.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/compiler.hh"
#include "common/cpuinfo.hh"
#include "common/logging.hh"

// The AVX2 kernels are compiled with per-function target attributes
// (no global -mavx2), so the same binary carries both code paths and
// cpu::hasAvx2() picks one at backend construction.  Non-x86 builds
// compile only the scalar paths; the *-avx2 backend names still exist
// there and simply always run scalar.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define ASR_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define ASR_HAVE_AVX2_KERNELS 0
#endif

namespace asr::acoustic {

std::string_view
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Reference:   return "reference";
      case BackendKind::Blocked:     return "blocked";
      case BackendKind::BlockedAvx2: return "blocked-avx2";
      case BackendKind::Int8:        return "int8";
      case BackendKind::Int8Avx2:    return "int8-avx2";
    }
    panic("unknown backend kind %d", int(kind));
}

BackendKind
backendKindFromName(std::string_view name)
{
    BackendKind kind;
    if (tryBackendKindFromName(name, kind))
        return kind;
    fatal("%s", unknownBackendMessage(name).c_str());
}

std::string
unknownBackendMessage(std::string_view name)
{
    std::string msg = "unknown acoustic backend '";
    msg += name;
    msg += "' (registered:";
    for (const std::string_view n : acousticBackendNames()) {
        msg += ' ';
        msg += n;
    }
    msg += ')';
    return msg;
}

bool
tryBackendKindFromName(std::string_view name, BackendKind &kind)
{
    for (const BackendKind k : {BackendKind::Reference,
                                BackendKind::Blocked,
                                BackendKind::BlockedAvx2,
                                BackendKind::Int8,
                                BackendKind::Int8Avx2}) {
        if (name == backendName(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

std::vector<std::string_view>
acousticBackendNames()
{
    return {backendName(BackendKind::Reference),
            backendName(BackendKind::Blocked),
            backendName(BackendKind::BlockedAvx2),
            backendName(BackendKind::Int8),
            backendName(BackendKind::Int8Avx2)};
}

namespace {

/** Total weight + bias bytes of the trained net at @p bytes_per_weight. */
std::uint64_t
parameterBytes(const Dnn &dnn, std::size_t bytes_per_weight,
               std::size_t extra_per_channel_floats)
{
    std::uint64_t bytes = 0;
    for (std::size_t l = 0; l < dnn.numLayers(); ++l) {
        const Matrix &w = dnn.layerWeights(l);
        bytes += std::uint64_t(w.rows()) * w.cols() * bytes_per_weight;
        bytes += std::uint64_t(w.rows()) *
                 (1 + extra_per_channel_floats) * sizeof(float);
    }
    return bytes;
}

// ---------------------------------------------------------------------------
// Reference backend: the training-time matmulTransposed path.
// ---------------------------------------------------------------------------

class ReferenceBackend final : public Backend
{
  public:
    explicit ReferenceBackend(const Dnn &dnn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          net(dnn), macs(dnn.macsPerFrame()),
          weightBytes(parameterBytes(dnn, sizeof(float), 0))
    {
    }

    BackendKind kind() const override { return BackendKind::Reference; }
    bool bitIdenticalToReference() const override { return true; }

    void
    scoreRows(const Matrix &input, std::size_t r0, std::size_t r1,
              Matrix &out, FrameScratch &) const override
    {
        checkRows(input, r0, r1, out);
        if (r0 == r1)
            return;
        // The naive path keeps its allocations: it is the oracle the
        // other backends are measured against, not a serving kernel.
        Matrix rows(r1 - r0, input.cols());
        const float *first = input.row(r0).data();
        std::copy(first, first + rows.data().size(),
                  rows.data().begin());
        const Matrix logp = net.forward(rows);
        std::copy(logp.data().begin(), logp.data().end(),
                  out.row(r0).data());
    }

    void
    scoreFrame(std::span<const float> spliced, std::span<float> out,
               FrameScratch &) const override
    {
        ASR_ASSERT(spliced.size() == inputDim() &&
                       out.size() == outputDim(),
                   "scoreFrame dim mismatch");
        // One-row batch through the exact batch path: the reference
        // backend is the baseline other backends are measured
        // against, so it keeps the naive per-frame allocations.
        Matrix row(1, spliced.size());
        std::copy(spliced.begin(), spliced.end(),
                  row.row(0).begin());
        const Matrix logp = net.forward(row);
        std::copy(logp.row(0).begin(), logp.row(0).end(),
                  out.begin());
    }

    std::uint64_t macsPerFrame() const override { return macs; }
    std::uint64_t
    weightBytesPerFrame() const override
    {
        return weightBytes;
    }

  private:
    const Dnn &net;
    std::uint64_t macs;
    std::uint64_t weightBytes;
};

// ---------------------------------------------------------------------------
// Blocked backend: packed-tile float GEMM, bit-identical to reference.
// ---------------------------------------------------------------------------

/**
 * Output-channel tile width of the packed layout.  Wide on purpose:
 * with 32 independent accumulator lanes GCC/Clang emit the clean
 * broadcast-multiply-accumulate vector form and enough parallel
 * add chains to hide FP-add latency (narrow tiles fall into a
 * shuffle-heavy code path an order of magnitude slower); the padding
 * waste on a tail tile is at most 31 output channels' worth of MACs.
 */
constexpr std::size_t kTile = 32;

/** Rows of the input batch processed per packed panel pass. */
constexpr std::size_t kRowBlock = 32;

/**
 * One layer repacked for the blocked kernel: output channels grouped
 * into tiles of kTile, each tile stored k-major so the inner loop
 * reads kTile consecutive weights per input value -- a contiguous
 * vector load with an independent accumulator per lane, which keeps
 * ascending-k order per output element (the bit-identity contract)
 * while letting the compiler vectorize across the tile.
 */
struct PackedLayer
{
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t tiles = 0;
    std::vector<float> packed;  //!< tiles x in x kTile, zero padded
    std::vector<float> bias;    //!< out
};

PackedLayer
packLayer(const Matrix &weights, std::span<const float> bias)
{
    PackedLayer layer;
    layer.in = weights.cols();
    layer.out = weights.rows();
    layer.tiles = (layer.out + kTile - 1) / kTile;
    layer.packed.assign(layer.tiles * layer.in * kTile, 0.0f);
    layer.bias.assign(bias.begin(), bias.end());
    for (std::size_t j = 0; j < layer.out; ++j) {
        const auto wrow = weights.row(j);
        const std::size_t tile = j / kTile, lane = j % kTile;
        float *panel = layer.packed.data() + tile * layer.in * kTile;
        for (std::size_t k = 0; k < layer.in; ++k)
            panel[k * kTile + lane] = wrow[k];
    }
    return layer;
}

/**
 * y[r][j] = sum_k x[r][k] * W[j][k] + bias[j] for rows [r0, r1) and
 * the output channels of one packed panel.
 */
void
gemmPanel(const float *ASR_RESTRICT xd, std::size_t in,
          const float *ASR_RESTRICT panel,
          const float *ASR_RESTRICT bias, std::size_t j0,
          std::size_t jn, float *ASR_RESTRICT yd, std::size_t out,
          std::size_t r0, std::size_t r1)
{
    for (std::size_t r = r0; r < r1; ++r) {
        const float *ASR_RESTRICT xrow = xd + r * in;
        float acc[kTile] = {};
        for (std::size_t k = 0; k < in; ++k) {
            const float xv = xrow[k];
            const float *ASR_RESTRICT p = panel + k * kTile;
            for (std::size_t t = 0; t < kTile; ++t)
                acc[t] += xv * p[t];
        }
        float *ASR_RESTRICT yrow = yd + r * out;
        for (std::size_t t = 0; t < jn; ++t)
            yrow[j0 + t] = acc[t] + bias[j0 + t];
    }
}

/** Signature shared by gemmPanel and its AVX2 twin. */
using PanelKernel = void (*)(const float *ASR_RESTRICT, std::size_t,
                             const float *ASR_RESTRICT,
                             const float *ASR_RESTRICT, std::size_t,
                             std::size_t, float *ASR_RESTRICT,
                             std::size_t, std::size_t, std::size_t);

#if ASR_HAVE_AVX2_KERNELS

/**
 * gemmPanel with explicit AVX2+FMA: one broadcast load of x[k] FMAed
 * into four 8-lane accumulators covering the kTile panel.  Same
 * ascending-k single-accumulator-per-lane order as the scalar kernel,
 * but fused multiply-adds round once per step, so results differ from
 * the bit-identity contract by at most the FMA rounding delta (the
 * error-bound tests quantify this).
 */
__attribute__((target("avx2,fma"))) void
gemmPanelAvx2(const float *ASR_RESTRICT xd, std::size_t in,
              const float *ASR_RESTRICT panel,
              const float *ASR_RESTRICT bias, std::size_t j0,
              std::size_t jn, float *ASR_RESTRICT yd, std::size_t out,
              std::size_t r0, std::size_t r1)
{
    static_assert(kTile == 32, "kernel hard-codes four 8-lane vectors");
    for (std::size_t r = r0; r < r1; ++r) {
        const float *ASR_RESTRICT xrow = xd + r * in;
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        __m256 acc2 = _mm256_setzero_ps();
        __m256 acc3 = _mm256_setzero_ps();
        for (std::size_t k = 0; k < in; ++k) {
            const __m256 xv = _mm256_set1_ps(xrow[k]);
            const float *ASR_RESTRICT p = panel + k * kTile;
            acc0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(p), acc0);
            acc1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(p + 8), acc1);
            acc2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(p + 16), acc2);
            acc3 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(p + 24), acc3);
        }
        float *ASR_RESTRICT yrow = yd + r * out;
        if (jn == kTile) {
            _mm256_storeu_ps(
                yrow + j0,
                _mm256_add_ps(acc0, _mm256_loadu_ps(bias + j0)));
            _mm256_storeu_ps(
                yrow + j0 + 8,
                _mm256_add_ps(acc1, _mm256_loadu_ps(bias + j0 + 8)));
            _mm256_storeu_ps(
                yrow + j0 + 16,
                _mm256_add_ps(acc2, _mm256_loadu_ps(bias + j0 + 16)));
            _mm256_storeu_ps(
                yrow + j0 + 24,
                _mm256_add_ps(acc3, _mm256_loadu_ps(bias + j0 + 24)));
        } else {
            alignas(32) float acc[kTile];
            _mm256_store_ps(acc, acc0);
            _mm256_store_ps(acc + 8, acc1);
            _mm256_store_ps(acc + 16, acc2);
            _mm256_store_ps(acc + 24, acc3);
            for (std::size_t t = 0; t < jn; ++t)
                yrow[j0 + t] = acc[t] + bias[j0 + t];
        }
    }
}

#endif // ASR_HAVE_AVX2_KERNELS

/** The panel kernel cpu::hasAvx2() resolves to right now. */
PanelKernel
pickPanelKernel()
{
#if ASR_HAVE_AVX2_KERNELS
    if (cpu::hasAvx2())
        return &gemmPanelAvx2;
#endif
    return &gemmPanel;
}

/**
 * Full packed-layer GEMM over @p rows contiguous rows (x: rows x
 * layer.in, y: rows x layer.out) with row blocking for cache reuse.
 */
void
gemmPacked(const float *xd, std::size_t rows, const PackedLayer &layer,
           float *yd, PanelKernel kernel)
{
    for (std::size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
        const std::size_t r1 = std::min(rows, r0 + kRowBlock);
        for (std::size_t tile = 0; tile < layer.tiles; ++tile) {
            const float *panel =
                layer.packed.data() + tile * layer.in * kTile;
            const std::size_t j0 = tile * kTile;
            const std::size_t jn = std::min(kTile, layer.out - j0);
            kernel(xd, layer.in, panel, layer.bias.data(), j0, jn, yd,
                   layer.out, r0, r1);
        }
    }
}

/**
 * Shared implementation of the packed-layout float backends; the
 * concrete classes pick the panel kernel (and with it the identity
 * guarantee) at construction.
 */
class PackedFloatBackend : public Backend
{
  public:
    void
    scoreRows(const Matrix &input, std::size_t r0, std::size_t r1,
              Matrix &out, FrameScratch &scratch) const override
    {
        checkRows(input, r0, r1, out);
        if (r0 == r1)
            return;
        // Layer 0 reads the caller's matrix and the last layer writes
        // the caller's output in place (no batch copy -- this is the
        // serving hot path, one call per thread per tick).
        forwardRows(input.row(r0).data(), r1 - r0, out.row(r0).data(),
                    scratch);
    }

    void
    scoreFrame(std::span<const float> spliced, std::span<float> out,
               FrameScratch &scratch) const override
    {
        ASR_ASSERT(spliced.size() == inputDim() &&
                       out.size() == outputDim(),
                   "scoreFrame dim mismatch");
        forwardRows(spliced.data(), 1, out.data(), scratch);
    }

    std::uint64_t macsPerFrame() const override { return macs; }
    std::uint64_t
    weightBytesPerFrame() const override
    {
        return weightBytes;
    }

  protected:
    PackedFloatBackend(const Dnn &dnn, PanelKernel kernel_fn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          kernel(kernel_fn), macs(dnn.macsPerFrame()),
          weightBytes(parameterBytes(dnn, sizeof(float), 0))
    {
        for (std::size_t l = 0; l < dnn.numLayers(); ++l)
            layers.push_back(packLayer(dnn.layerWeights(l),
                                       dnn.layerBias(l)));
    }

  private:
    /**
     * The whole network over @p rows contiguous input rows @p x into
     * @p out (rows x outputDim), hidden activations ping-ponging
     * through @p scratch.
     */
    void
    forwardRows(const float *x, std::size_t rows, float *out,
                FrameScratch &scratch) const
    {
        for (std::size_t l = 0; l < layers.size(); ++l) {
            const PackedLayer &layer = layers[l];
            const bool last = l + 1 == layers.size();
            float *y;
            if (last) {
                y = out;
            } else {
                std::vector<float> &buf =
                    (l % 2 == 0) ? scratch.a : scratch.b;
                if (buf.size() < rows * layer.out)
                    buf.resize(rows * layer.out);
                y = buf.data();
            }
            gemmPacked(x, rows, layer, y, kernel);
            if (!last)
                for (std::size_t i = 0; i < rows * layer.out; ++i)
                    y[i] = std::max(y[i], 0.0f);
            x = y;
        }
        for (std::size_t r = 0; r < rows; ++r)
            logSoftmaxRow({out + r * outputDim(), outputDim()});
    }

    std::vector<PackedLayer> layers;
    PanelKernel kernel;
    std::uint64_t macs;
    std::uint64_t weightBytes;
};

/** The default float backend: scalar kernel, bit-identical. */
class BlockedBackend final : public PackedFloatBackend
{
  public:
    explicit BlockedBackend(const Dnn &dnn)
        : PackedFloatBackend(dnn, &gemmPanel)
    {
    }

    BackendKind kind() const override { return BackendKind::Blocked; }
    bool bitIdenticalToReference() const override { return true; }
};

/**
 * AVX2+FMA float backend.  Bit-identical to reference only when it
 * had to fall back to the scalar kernel; with SIMD active, FMA's
 * single rounding per step voids the contract (error-bound tested).
 */
class BlockedAvx2Backend final : public PackedFloatBackend
{
  public:
    explicit BlockedAvx2Backend(const Dnn &dnn)
        : BlockedAvx2Backend(dnn, pickPanelKernel())
    {
    }

    BackendKind
    kind() const override
    {
        return BackendKind::BlockedAvx2;
    }
    bool bitIdenticalToReference() const override { return !simd; }
    std::string_view
    isa() const override
    {
        return simd ? "avx2" : "scalar";
    }

  private:
    BlockedAvx2Backend(const Dnn &dnn, PanelKernel kernel_fn)
        : PackedFloatBackend(dnn, kernel_fn),
          simd(kernel_fn != &gemmPanel)
    {
    }

    bool simd;
};

// ---------------------------------------------------------------------------
// Int8 backends: per-output-channel weight quantization, dynamic
// per-frame activation quantization, int32 accumulation.
// ---------------------------------------------------------------------------

struct QuantLayer
{
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t tiles = 0;
    std::vector<std::int8_t> packed;  //!< tiles x in x kTile
    std::vector<float> scale;         //!< per-output-channel weight scale
    std::vector<float> bias;
};

QuantLayer
quantizeLayer(const Matrix &weights, std::span<const float> bias)
{
    QuantLayer layer;
    layer.in = weights.cols();
    layer.out = weights.rows();
    layer.tiles = (layer.out + kTile - 1) / kTile;
    layer.packed.assign(layer.tiles * layer.in * kTile, 0);
    layer.scale.assign(layer.out, 1.0f);
    layer.bias.assign(bias.begin(), bias.end());
    for (std::size_t j = 0; j < layer.out; ++j) {
        const auto wrow = weights.row(j);
        float amax = 0.0f;
        for (std::size_t k = 0; k < layer.in; ++k)
            amax = std::max(amax, std::abs(wrow[k]));
        const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
        layer.scale[j] = scale;
        const std::size_t tile = j / kTile, lane = j % kTile;
        std::int8_t *panel =
            layer.packed.data() + tile * layer.in * kTile;
        for (std::size_t k = 0; k < layer.in; ++k) {
            const long q = std::lround(double(wrow[k]) / scale);
            panel[k * kTile + lane] =
                std::int8_t(std::clamp<long>(q, -127, 127));
        }
    }
    return layer;
}

/**
 * Scalar int8 tile accumulation over the lane-major packed panel:
 * acc[t] += sum_k qx[k] * panel[k][t], int32 accumulators.
 */
void
int8PanelScalar(const std::int8_t *ASR_RESTRICT qx, std::size_t in,
                const std::int8_t *ASR_RESTRICT panel,
                std::int32_t *ASR_RESTRICT acc)
{
    for (std::size_t k = 0; k < in; ++k) {
        const std::int32_t xq = qx[k];
        const std::int8_t *ASR_RESTRICT p = panel + k * kTile;
        for (std::size_t t = 0; t < kTile; ++t)
            acc[t] += xq * std::int32_t(p[t]);
    }
}

#if ASR_HAVE_AVX2_KERNELS

/**
 * AVX2 int8 tile accumulation over the group-packed panel (see
 * packAvx2Panel).  Per k-group of 4: broadcast the 4 activation
 * bytes, then maddubs(|x|, sign(w, x)) pairs u8*s8 products into s16
 * and madd-with-ones widens to the per-lane s32 sums.  The sign
 * trick supplies maddubs's required unsigned operand while keeping
 * x*w == |x| * sign(w, x); saturation cannot trigger because
 * quantization clamps both sides to +/-127 (pair sums <= 32258).
 * Integer addition is associative, so the result is bit-identical to
 * int8PanelScalar.
 */
__attribute__((target("avx2"))) void
int8PanelAvx2(const std::int8_t *ASR_RESTRICT qx, std::size_t groups,
              const std::int8_t *ASR_RESTRICT panel,
              std::int32_t *ASR_RESTRICT acc)
{
    static_assert(kTile == 32, "kernel hard-codes four 8-lane vectors");
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (std::size_t g = 0; g < groups; ++g) {
        std::int32_t raw;
        std::memcpy(&raw, qx + g * 4, 4);
        const __m256i xs = _mm256_set1_epi32(raw);
        const __m256i xa = _mm256_abs_epi8(xs);
        const std::int8_t *ASR_RESTRICT p = panel + g * kTile * 4;
        const __m256i w0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        const __m256i w1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 32));
        const __m256i w2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 64));
        const __m256i w3 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 96));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w0, xs)),
                      ones));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w1, xs)),
                      ones));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w2, xs)),
                      ones));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w3, xs)),
                      ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + 8), acc1);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + 16), acc2);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + 24), acc3);
}

#endif // ASR_HAVE_AVX2_KERNELS

/** ceil(in / 4): k-groups one AVX2 int8 panel pass consumes. */
std::size_t
int8KGroups(std::size_t in)
{
    return (in + 3) / 4;
}

/**
 * Repack one QuantLayer panel for int8PanelAvx2: per k-group of 4,
 * per lane, the 4 consecutive k weights -- so one 32-byte load per
 * group covers 8 lanes x 4 k-values, matching maddubs's pairwise
 * byte layout.  k beyond layer.in pads with zero (contributes 0).
 */
std::vector<std::int8_t>
packAvx2Panels(const QuantLayer &layer)
{
    const std::size_t groups = int8KGroups(layer.in);
    std::vector<std::int8_t> out(layer.tiles * groups * kTile * 4, 0);
    for (std::size_t tile = 0; tile < layer.tiles; ++tile) {
        const std::int8_t *src =
            layer.packed.data() + tile * layer.in * kTile;
        std::int8_t *dst = out.data() + tile * groups * kTile * 4;
        for (std::size_t k = 0; k < layer.in; ++k)
            for (std::size_t lane = 0; lane < kTile; ++lane)
                dst[(k / 4) * kTile * 4 + lane * 4 + k % 4] =
                    src[k * kTile + lane];
    }
    return out;
}

/**
 * Shared implementation of the int8 backends; the concrete classes
 * supply the per-tile accumulation kernel.  Quantization, dequant and
 * bias arithmetic all live here, so scalar and AVX2 int8 differ only
 * in how the associative int32 sum is formed -- which makes them
 * bit-identical to each other (tested).
 */
class Int8BackendBase : public Backend
{
  public:
    void
    scoreRows(const Matrix &input, std::size_t r0, std::size_t r1,
              Matrix &out, FrameScratch &scratch) const override
    {
        checkRows(input, r0, r1, out);
        for (std::size_t r = r0; r < r1; ++r)
            scoreRow(input.row(r), out.row(r), scratch);
    }

    void
    scoreFrame(std::span<const float> spliced, std::span<float> out,
               FrameScratch &scratch) const override
    {
        ASR_ASSERT(spliced.size() == inputDim() &&
                       out.size() == outputDim(),
                   "scoreFrame dim mismatch");
        scoreRow(spliced, out, scratch);
    }

    std::uint64_t macsPerFrame() const override { return macs; }
    std::uint64_t
    weightBytesPerFrame() const override
    {
        return weightBytes;
    }

  protected:
    explicit Int8BackendBase(const Dnn &dnn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          macs(dnn.macsPerFrame()),
          weightBytes(parameterBytes(dnn, sizeof(std::int8_t), 1))
    {
        for (std::size_t l = 0; l < dnn.numLayers(); ++l)
            layers.push_back(quantizeLayer(dnn.layerWeights(l),
                                           dnn.layerBias(l)));
    }

    /**
     * acc[kTile] = int32 dot products of the quantized row @p qx
     * (padded with zeros to a multiple of 4 entries) against tile
     * @p tile of layer @p l.
     */
    virtual void accumTile(std::size_t l, std::size_t tile,
                           const std::int8_t *qx,
                           std::int32_t *acc) const = 0;

    std::vector<QuantLayer> layers;

  private:
    /**
     * Score one row.  Identical arithmetic whether called from the
     * batch or the streaming entry point (quantization is per row),
     * so the two paths agree bit-for-bit with each other -- just not
     * with the float backends.
     */
    void
    scoreRow(std::span<const float> input, std::span<float> out,
             FrameScratch &scratch) const
    {
        const float *x = input.data();
        std::size_t xn = input.size();
        for (std::size_t l = 0; l < layers.size(); ++l) {
            const QuantLayer &layer = layers[l];
            const bool last = l + 1 == layers.size();
            ASR_ASSERT(xn == layer.in, "layer dim mismatch");
            float *y;
            if (last) {
                y = out.data();
            } else {
                std::vector<float> &buf =
                    (l % 2 == 0) ? scratch.a : scratch.b;
                if (buf.size() < layer.out)
                    buf.resize(layer.out);
                y = buf.data();
            }

            // Dynamic symmetric activation quantization.
            float amax = 0.0f;
            for (std::size_t k = 0; k < xn; ++k)
                amax = std::max(amax, std::abs(x[k]));
            if (amax == 0.0f) {
                for (std::size_t j = 0; j < layer.out; ++j)
                    y[j] = layer.bias[j];
            } else {
                const float ascale = amax / 127.0f;
                // Padded to a k-group multiple so the AVX2 kernel's
                // 4-byte activation loads stay in bounds; the zero
                // tail contributes nothing either way.
                const std::size_t qn = int8KGroups(xn) * 4;
                if (scratch.q.size() < qn)
                    scratch.q.resize(qn);
                for (std::size_t k = 0; k < xn; ++k) {
                    const long q =
                        std::lround(double(x[k]) / ascale);
                    scratch.q[k] =
                        std::int8_t(std::clamp<long>(q, -127, 127));
                }
                for (std::size_t k = xn; k < qn; ++k)
                    scratch.q[k] = 0;
                const std::int8_t *qx = scratch.q.data();
                for (std::size_t tile = 0; tile < layer.tiles;
                     ++tile) {
                    alignas(32) std::int32_t acc[kTile] = {};
                    accumTile(l, tile, qx, acc);
                    const std::size_t j0 = tile * kTile;
                    const std::size_t jn =
                        std::min(kTile, layer.out - j0);
                    for (std::size_t t = 0; t < jn; ++t) {
                        const std::size_t j = j0 + t;
                        y[j] = float(acc[t]) *
                                   (ascale * layer.scale[j]) +
                               layer.bias[j];
                    }
                }
            }
            if (!last)
                for (std::size_t j = 0; j < layer.out; ++j)
                    y[j] = std::max(y[j], 0.0f);
            x = y;
            xn = layer.out;
        }
        logSoftmaxRow(out);
    }

    std::uint64_t macs;
    std::uint64_t weightBytes;
};

class Int8Backend final : public Int8BackendBase
{
  public:
    explicit Int8Backend(const Dnn &dnn) : Int8BackendBase(dnn) {}

    BackendKind kind() const override { return BackendKind::Int8; }
    bool bitIdenticalToReference() const override { return false; }

  protected:
    void
    accumTile(std::size_t l, std::size_t tile, const std::int8_t *qx,
              std::int32_t *acc) const override
    {
        const QuantLayer &layer = layers[l];
        int8PanelScalar(qx, layer.in,
                        layer.packed.data() + tile * layer.in * kTile,
                        acc);
    }
};

/**
 * AVX2 int8 backend.  Keeps the scalar lane-major panels (fallback
 * path) and adds the group-packed panels the AVX2 kernel walks; the
 * two kernels produce identical int32 sums, so which one runs is
 * unobservable in the scores.
 */
class Int8Avx2Backend final : public Int8BackendBase
{
  public:
    explicit Int8Avx2Backend(const Dnn &dnn)
        : Int8BackendBase(dnn), simd(haveAvx2Kernels() && cpu::hasAvx2())
    {
        if (simd)
            for (const QuantLayer &layer : layers)
                avxPanels.push_back(packAvx2Panels(layer));
    }

    BackendKind kind() const override { return BackendKind::Int8Avx2; }
    bool bitIdenticalToReference() const override { return false; }
    std::string_view
    isa() const override
    {
        return simd ? "avx2" : "scalar";
    }

  protected:
    void
    accumTile(std::size_t l, std::size_t tile, const std::int8_t *qx,
              std::int32_t *acc) const override
    {
        const QuantLayer &layer = layers[l];
#if ASR_HAVE_AVX2_KERNELS
        if (simd) {
            const std::size_t groups = int8KGroups(layer.in);
            int8PanelAvx2(qx, groups,
                          avxPanels[l].data() + tile * groups * kTile * 4,
                          acc);
            return;
        }
#endif
        int8PanelScalar(qx, layer.in,
                        layer.packed.data() + tile * layer.in * kTile,
                        acc);
    }

  private:
    static constexpr bool
    haveAvx2Kernels()
    {
        return ASR_HAVE_AVX2_KERNELS != 0;
    }

    std::vector<std::vector<std::int8_t>> avxPanels;
    bool simd;
};

} // namespace

Matrix
Backend::scoreBatch(const Matrix &input) const
{
    Matrix out(input.rows(), outputDim());
    FrameScratch scratch;
    scoreRows(input, 0, input.rows(), out, scratch);
    return out;
}

void
Backend::checkRows(const Matrix &input, std::size_t r0, std::size_t r1,
                   const Matrix &out) const
{
    ASR_ASSERT(input.cols() == inputDim(),
               "backend input dim %zu != %zu", input.cols(),
               inputDim());
    ASR_ASSERT(out.rows() == input.rows() && out.cols() == outputDim(),
               "backend output %zux%zu != %zux%zu", out.rows(),
               out.cols(), input.rows(), outputDim());
    ASR_ASSERT(r0 <= r1 && r1 <= input.rows(),
               "row range [%zu, %zu) outside %zu rows", r0, r1,
               input.rows());
}

std::unique_ptr<Backend>
Backend::create(BackendKind kind, const Dnn &dnn)
{
    switch (kind) {
      case BackendKind::Reference:
        return std::make_unique<ReferenceBackend>(dnn);
      case BackendKind::Blocked:
        return std::make_unique<BlockedBackend>(dnn);
      case BackendKind::BlockedAvx2:
        return std::make_unique<BlockedAvx2Backend>(dnn);
      case BackendKind::Int8:
        return std::make_unique<Int8Backend>(dnn);
      case BackendKind::Int8Avx2:
        return std::make_unique<Int8Avx2Backend>(dnn);
    }
    panic("unknown backend kind %d", int(kind));
}

} // namespace asr::acoustic
