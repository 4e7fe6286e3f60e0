package repro.core

import scala.collection.mutable
import repro.graph.{AttributedGraph, CohesionModel, CoreModel, LocalGraph}

/** Exact baseline for CS-AG (§IV): search-tree enumeration over the maximal
  * connected k-core with three pruning strategies.
  *
  *  - P1 "duplicate states": priority enumeration in descending `f(·,q)` plus
  *    the Theorem 4 check `f(v_m,q) > f(u,q)` (with `u` the node whose
  *    deletion produced the current state).
  *  - P2 "unnecessary states": only delete nodes with `f(·,q) > δ(state)`
  *    (Theorem 5).
  *  - P3 "unpromising states": prune a state when the lower bound
  *    `δ̲ = mean of the k smallest non-q f-values` reaches the best δ so far
  *    (Eq. 3–4, Theorem 6).
  *
  * The enumeration itself is a driver-side search over the collected maximal
  * structure (as in the paper); the maximal structure is found distributively
  * (core decomposition, §IV-A).
  */
object ExactCSAG {

  /** Pruning toggles — Table IV's four configurations. */
  final case class Pruning(p1: Boolean = true, p2: Boolean = true, p3: Boolean = true)
  object Pruning {
    val All: Pruning = Pruning()
    /** Exact\P3 = P1+P2 */
    val NoP3: Pruning = Pruning(p3 = false)
    /** Exact\P3+P2 = P1 only */
    val OnlyP1: Pruning = Pruning(p2 = false, p3 = false)
    /** Exact w/o P */
    val None: Pruning = Pruning(p1 = false, p2 = false, p3 = false)
  }

  /** `community` is empty when no connected k-core contains q. `states` is
    * the number of explored substates (one per k-core maintenance), `capped`
    * reports whether the state budget was exhausted (plays the role of the
    * paper's ">8 days" entries).
    */
  final case class Result(
      community: Set[Long],
      delta: Double,
      states: Long,
      capped: Boolean,
  )

  /** Run the enumeration on a collected local graph. `f(i)` is the composite
    * distance of local node `i` to the query. `objective` defaults to the
    * paper's δ(·); E-VAC reuses the machinery with the min-max objective
    * (P2/P3 are δ-specific and must be off for a non-δ objective).
    */
  def run(
      lg: LocalGraph,
      qIdx: Int,
      f: Array[Double],
      model: CohesionModel,
      pruning: Pruning = Pruning.All,
      stateCap: Long = Long.MaxValue,
      objective: Option[mutable.BitSet => Double] = scala.None,
      accept: Option[mutable.BitSet => Boolean] = scala.None,
  ): Result = {
    val k = model.minCommunitySize - 1

    def deltaOf(alive: mutable.BitSet): Double = {
      var s = 0.0; var c = 0
      alive.foreach { i => if (i != qIdx) { s += f(i); c += 1 } }
      if (c == 0) 0.0 else s / c
    }
    val score: mutable.BitSet => Double = objective.getOrElse(deltaOf)

    val root = model.maximal(lg, lg.allAlive, qIdx)
    if (root.isEmpty) return Result(Set.empty, Double.NaN, 0L, capped = false)

    val ok: mutable.BitSet => Boolean = accept.getOrElse(_ => true)
    var best = if (ok(root)) root.clone() else mutable.BitSet.empty
    var bestScore = if (ok(root)) score(root) else Double.PositiveInfinity
    var states = 0L
    var capped = false

    def lowerBound(alive: mutable.BitSet): Double = {
      // Eq. 3-4: mean of the k smallest f over non-q alive nodes.
      val fs = alive.iterator.filter(_ != qIdx).map(f).toArray.sorted
      if (fs.length < k) Double.PositiveInfinity
      else fs.take(k).sum / k
    }

    def enumerate(alive: mutable.BitSet, fPrevDeleted: Double): Unit = {
      if (capped) return
      if (pruning.p3 && lowerBound(alive) >= bestScore) return
      val d = deltaOf(alive)
      val candidates = {
        val base = alive.iterator.filter(i => i != qIdx)
        val filtered = if (pruning.p2) base.filter(i => f(i) > d) else base
        val arr = filtered.toArray
        if (pruning.p1) arr.sortBy(i => -f(i)) else arr.sortBy(identity[Int])
      }
      var ci = 0
      while (ci < candidates.length && !capped) {
        val v = candidates(ci)
        ci += 1
        if (states >= stateCap) { capped = true }
        else {
          states += 1
          val without = alive.clone(); without -= v
          val child = model.maximal(lg, without, qIdx)
          // v_m: max-f node among everything deleted in this step (incl. v).
          var fm = f(v)
          alive.foreach(i => if (i != v && !child(i) && f(i) > fm) fm = f(i))
          val duplicate = pruning.p1 && fm > fPrevDeleted
          if (!duplicate && child.nonEmpty && child(qIdx) &&
              child.size >= model.minCommunitySize) {
            val cs = score(child)
            if (cs < bestScore - 1e-12 && ok(child)) { bestScore = cs; best = child.clone() }
            enumerate(child, f(v))
          }
        }
      }
    }

    enumerate(root, Double.PositiveInfinity)
    Result(best.iterator.map(lg.ids).toSet,
      if (best.isEmpty) Double.NaN else bestScore, states, capped)
  }

  /** End-to-end Exact on a distributed graph: distributed maximal connected
    * k-core (§IV-A), collect it, enumerate with prunings (§IV-B). Throws
    * `IllegalArgumentException` when `q` is not in `g`; the community is
    * empty when no connected k-core contains `q`.
    */
  def search(
      g: AttributedGraph,
      q: Long,
      k: Int,
      gamma: Double = 0.5,
      pruning: Pruning = Pruning.All,
      stateCap: Long = Long.MaxValue,
  ): Result = {
    val model = new CoreModel(k)
    val lg = model.maximalConnected(g, q)
    if (lg.n == 0) return Result(Set.empty, Double.NaN, 0L, capped = false)
    val qIdx = lg.indexOf(q)
    run(lg, qIdx, lg.distancesTo(qIdx, gamma), model, pruning, stateCap)
  }
}
