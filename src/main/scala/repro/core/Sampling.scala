package repro.core

import scala.collection.mutable
import scala.util.Random

/** Attribute-aware sampling (§V-A): nodes are drawn with probability
  * `P_s(v) ∝ 1 − f(v,q)` (Eq. 5). Fixed-size weighted sampling without
  * replacement is the Efraimidis–Spirakis A-Res scheme (IPL 2006): key each
  * candidate `u^{1/w}` with `u ~ U(0,1)` and keep the largest keys. It runs
  * on the driver over `G_q`'s local indices; `f(i)` is node `i`'s distance
  * to the query. Weights are clamped to ≥ 1e-6 so f = 1 nodes stay
  * sampleable.
  */
object Sampling {

  /** Initial sample of `size` local indices, always including `q`. */
  def weightedSample(f: Array[Double], q: Int, size: Int, seed: Long): mutable.BitSet =
    mutable.BitSet(q) ++= weightedSampleMore(f, Set(q), size - 1, seed)

  /** Incremental sampling (§V-C): draw up to `size` more indices, never
    * from `exclude`; capped by the remaining population.
    */
  def weightedSampleMore(
      f: Array[Double], exclude: collection.Set[Int], size: Int, seed: Long,
  ): Array[Int] = {
    val rnd = new Random(seed)
    // log(u)/w ranks candidates exactly as u^{1/w} does, without the
    // underflow to 0 that u^{1e6} would give every f = 1 node.
    val keyed = f.indices.filterNot(exclude).map { i =>
      (math.log(rnd.nextDouble()) / math.max(1.0 - f(i), 1e-6), i)
    }
    keyed.sortBy { case (key, i) => (-key, i) }.take(math.max(size, 0)).map(_._2).toArray
  }
}
