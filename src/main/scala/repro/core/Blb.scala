package repro.core

import scala.util.Random

/** Bag of Little Bootstraps estimation of the Margin of Error of
  * `CI = δ* ± ε` (§V-B), plus Theorem 11's accuracy-guarantee check and the
  * error-based incremental sampling size of Eq. 12 (§V-C).
  *
  * Faithfulness note (DESIGN.md §5): the paper's Eq. 11 omits the square in
  * the deviation sum (a typo) and describes resamples of size `|S_i|`; we
  * follow the BLB the paper cites (Kleiner et al.): resamples of size `N`
  * drawn from each subsample, sample-stddev estimator — this gives ε the
  * `1/√N` scaling Theorem 11 relies on.
  */
object Blb {

  /** One BLB run: `deltaStar` is the point estimate (the exact mean of the
    * candidate's f-values, matching Definition 4), `moe` the estimated
    * half-width ε of the 95% CI, `sBlb = Σ|S_i|` the number of subsample
    * points used (feeds Eq. 12).
    */
  final case class Estimate(deltaStar: Double, moe: Double, sBlb: Int)

  /** `z_{α/2}` for the paper's 95% confidence: the 97.5% normal quantile. */
  val Z = 1.959963986120195

  /** Subsample size `b = ⌈N^m⌉` and count `s = max(1, ⌊N/b⌋)` so that
    * `s·b ≤ N` as required by §V-B.
    */
  def subsamplePlan(nTotal: Int, m: Double): (Int, Int) = {
    val b = math.max(2, math.ceil(math.pow(nTotal, m)).toInt)
    val s = math.max(1, nTotal / b)
    (b, s)
  }

  /** Driver-side BLB over the candidate community's f-values. */
  def estimate(fValues: Array[Double], m: Double, r: Int, seed: Long): Estimate = {
    val nTotal = fValues.length
    val deltaStar = Stats.mean(fValues)
    if (nTotal < 4) {
      // Too small to subsample — plain CLT fallback.
      val sigma = Stats.stddev(fValues) / math.sqrt(math.max(nTotal, 1).toDouble)
      return Estimate(deltaStar, Z * sigma, nTotal)
    }
    val rnd = new Random(seed)
    val (b, s) = subsamplePlan(nTotal, m)
    val shuffled = rnd.shuffle(fValues.toIndexedSeq)
    val moes = (0 until s).map { i =>
      val sub = shuffled.slice(i * b, (i + 1) * b)
      val resampleMeans = Array.fill(r) {
        var acc = 0.0
        var j = 0
        while (j < nTotal) { acc += sub(rnd.nextInt(b)); j += 1 }
        acc / nTotal
      }
      Z * Stats.stddev(resampleMeans)
    }
    Estimate(deltaStar, moes.sum / s, s * b)
  }

  /** Theorem 11's MoE threshold: the guarantee `|δ*−δ|/δ ≤ e` holds (w.p.
    * 95%) when `ε ≤ δ*·e/(1+e)`.
    */
  def accuracyBound(deltaStar: Double, e: Double): Double = deltaStar * e / (1 + e)

  def satisfies(est: Estimate, e: Double): Boolean =
    est.moe <= accuracyBound(est.deltaStar, e)

  /** Eq. 12: error-based incremental sample size
    * `|ΔS| = |S_blb|·[(ε / (δ*e/(1+e)))^{2m} − 1]`, floored at 0.
    */
  def deltaSampleSize(moe: Double, deltaStar: Double, e: Double, m: Double, sBlb: Int): Long = {
    val bound = accuracyBound(deltaStar, e)
    if (bound <= 0) return sBlb.toLong // degenerate δ*; just grow by |S_blb|
    val ratio = moe / bound
    if (ratio <= 1) 0L
    else math.ceil(sBlb * (math.pow(ratio, 2 * m) - 1)).toLong
  }
}
