package repro.baselines

import scala.collection.mutable
import repro.core.ExactCSAG
import repro.graph.{CohesionModel, LocalGraph}

/** VAC baseline (Liu et al., ICDE'20): minimize the *maximum pairwise*
  * attribute distance inside the community (worst-case optimization — the
  * paper's Challenge I contrast: it overlooks per-node similarity to q).
  *
  *  - `run` is the approximate peel: repeatedly locate the most dissimilar
  *    pair and delete one of its endpoints (the one farther from q, never q
  *    itself) while the connected structure containing q survives; halt when
  *    the worst pair cannot be improved — mirroring Fig. 1(d)'s behaviour.
  *  - `runExact` (E-VAC) reuses the exact enumeration machinery with the
  *    min-max objective; exponential, so callers pass a state cap (the paper
  *    reports E-VAC "cannot finish within one week" on large graphs).
  */
object Vac {

  final case class Result(community: Set[Long], minMax: Double, capped: Boolean = false)

  /** The most distant pair of `alive` under `dist` and its distance; the
    * pair is (-1, -1) and the distance 0 when `alive` has fewer than two
    * nodes.
    */
  def maxPairwise(alive: mutable.BitSet, dist: (Int, Int) => Double): (Int, Int, Double) = {
    var bi = -1; var bj = -1; var bd = -1.0
    val nodes = alive.toArray
    var i = 0
    while (i < nodes.length) {
      var j = i + 1
      while (j < nodes.length) {
        val d = dist(nodes(i), nodes(j))
        if (d > bd) { bd = d; bi = nodes(i); bj = nodes(j) }
        j += 1
      }
      i += 1
    }
    (bi, bj, math.max(bd, 0.0))
  }

  /** Every pair's attribute distance, computed once: both searches read
    * each pair many times.
    */
  private def distances(lg: LocalGraph, gamma: Double): (Int, Int) => Double = {
    val d = Array.tabulate(lg.n, lg.n)((i, j) => lg.pairDistance(i, j, gamma))
    (i, j) => d(i)(j)
  }

  /** `f(i)` is local node `i`'s distance to q. */
  def run(lg: LocalGraph, qIdx: Int, f: Array[Double], model: CohesionModel, gamma: Double): Result = {
    val dist = distances(lg, gamma)
    val peel = model.peel(lg, lg.allAlive, qIdx)
    val cur = peel.alive
    if (cur.isEmpty) return Result(Set.empty, Double.NaN)
    var halted = false
    while (!halted && cur.size > model.minCommunitySize) {
      val (u, v, _) = maxPairwise(cur, dist)
      if (u < 0) halted = true
      else {
        // Prefer deleting the endpoint farther from q; q is never deleted.
        val order =
          (if (f(u) >= f(v)) Seq(u, v) else Seq(v, u)).filter(_ != qIdx)
        // Try each endpoint, undoing a deletion that loses the structure;
        // halt when neither can go (the worst pair cannot be improved).
        halted = !order.exists { w =>
          val mark = peel.mark
          peel.delete(w)
          cur.nonEmpty || { peel.undo(mark); false }
        }
      }
    }
    val (_, _, mm) = maxPairwise(cur, dist)
    Result(cur.iterator.map(lg.ids).toSet, mm)
  }

  /** E-VAC; `f(i)` is local node `i`'s distance to q (P1's order). */
  def runExact(
      lg: LocalGraph,
      qIdx: Int,
      f: Array[Double],
      model: CohesionModel,
      gamma: Double,
      stateCap: Long,
  ): Result = {
    val dist = distances(lg, gamma)
    val objective: mutable.BitSet => Double = maxPairwise(_, dist)._3
    val r = ExactCSAG.run(lg, qIdx, f, model,
      ExactCSAG.Pruning.OnlyP1, stateCap, Some(objective))
    Result(r.community, r.delta, r.capped)
  }
}
