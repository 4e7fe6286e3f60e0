package repro.core

import scala.collection.mutable
import repro.graph._

/** SEA — the paper's index-free Sampling-Estimation-based Approximate method
  * for Approx-CS-AG (§V), including the extensions of §VI:
  *
  *  1. *Sampling-based maximal H̃_k finding* (§V-A): Hoeffding minimum |G_q|
  *     (Theorem 10), attribute-prioritized BFS, attribute-aware weighted
  *     sampling of |S| = λ·|V_Gq| nodes, maximal connected structure of the
  *     induced G_q[S].
  *  2. *Estimation with accuracy guarantee* (§V-B): BLB Margin of Error,
  *     early termination when ε ≤ δ*·e/(1+e) (Theorem 11), greedy candidate
  *     search deleting the most dissimilar node otherwise.
  *  3. *Error-based incremental sampling* (§V-C): enlarge S by Eq. 12's |ΔS|
  *     and repeat, up to `MaxRounds` (the paper's N_e ≤ 5).
  *
  * Extensions: `truss = true` switches the community model to k-truss
  * (§VI-C); `sizeBound = Some((l,h))` enables size-bounded CS (§VI-B);
  * heterogeneous graphs (§VI-A) are handled by running on
  * `MetaPath.project(g, P)` — a (k,P)-core is a k-core of the projection.
  */
object Sea {

  val MaxRounds = 5         // the paper's N_e ≤ 5
  private val BlbM = 0.6    // BLB scale factor m: subsamples of size N^m
  private val BlbR = 60     // BLB resamples per subsample
  private val Alpha = 0.05  // CI confidence 1−α = 95%
  private val Beta = 0.05   // Hoeffding 1−β = 95%

  final case class Config(
      k: Int = 4,
      gamma: Double = 0.5,
      eps: Double = 0.05,      // Hoeffding ε
      lambda: Double = 0.2,    // initial sampling fraction
      e: Double = 0.02,        // user error bound
      sizeBound: Option[(Int, Int)] = None,
      truss: Boolean = false,
      seed: Long = 42,
  )

  /** Per-round trace — Table VI's columns. `addedSamples` is the |ΔS| drawn
    * *after* this round failed (0 when the round succeeded or sampling was
    * exhausted).
    */
  final case class Round(
      round: Int,
      deltaStar: Double,
      moe: Double,
      addedSamples: Long,
      timeMs: Double,
  )

  /** `deltaStar` and `moe` are NaN when no community was found. */
  final case class Result(
      community: Set[Long],
      deltaStar: Double,
      moe: Double,
      converged: Boolean,
      rounds: Seq[Round],
      gqSize: Long,
      sampleSize: Long,
  ) {
    def found: Boolean = community.nonEmpty
  }

  def run(g: AttributedGraph, q: Long, cfg: Config): Result = {
    val model: CohesionModel = if (cfg.truss) TrussModel(cfg.k) else CoreModel(cfg.k)
    def withinL(size: Int): Boolean = cfg.sizeBound.forall(size >= _._1)

    // --- Step 1: population sizing + G_q + initial sample -----------------
    // A size bound's l replaces the model's minimum even when l < k+1; the
    // |G_q| this gives is part of the output.
    val minNodes = cfg.sizeBound.fold(model.minCommunitySize.toLong)(_._1.toLong)
    val minGq = Hoeffding.minGqSize(g.nodeCount, minNodes, cfg.eps, Beta)
    // G_q is Hoeffding-bounded, so the BFS returns it collected; sampling,
    // estimation and the greedy peel run on the driver from here on.
    val lg = PriorityBfs.collectGq(g, q, minGq, cfg.gamma)
    val qIdx = lg.indexOf(q)
    val fLoc = lg.distancesTo(qIdx, cfg.gamma)
    val gqSize = lg.n.toLong

    val initial = math.max((cfg.lambda * gqSize).toLong, model.minCommunitySize * 3L)
      .min(gqSize).toInt
    val sample = Sampling.weightedSample(fLoc, qIdx, initial, cfg.seed)

    // --- Steps 2-3: estimate, greedy-search, incrementally resample -------
    // `best`: the candidate that met Theorem 11, else the lowest δ* in [l,h].
    val rounds = mutable.ArrayBuffer.empty[Round]
    var best: Option[(Blb.Estimate, mutable.BitSet)] = None
    var converged = false
    while (rounds.lastOption.forall(_.addedSamples > 0) && rounds.size < MaxRounds) {
      val round = rounds.size + 1
      val tRound = System.nanoTime()
      // One greedy pass (§V-B): estimate the candidate, then peel the node
      // most dissimilar to q, until a candidate meets Theorem 11 or the
      // structure falls apart. The lowest δ* estimated feeds Eq. 12.
      var roundBest: Option[Blb.Estimate] = None
      val peel = model.peel(lg, sample, qIdx)
      val cur = peel.alive
      var intact = cur.nonEmpty
      while (intact && !converged) {
        // Candidates over h are peeled unestimated. Only the first candidate
        // can be below l, and it is estimated all the same: its δ* feeds
        // Eq. 12, so the rounds depend on it.
        if (cfg.sizeBound.forall(cur.size <= _._2)) {
          val fv = cur.iterator.filter(_ != qIdx).map(fLoc).toArray
          val est = Blb.estimate(fv, Alpha, BlbM, BlbR, cfg.seed + round)
          if (roundBest.forall(_.deltaStar > est.deltaStar)) roundBest = Some(est)
          if (withinL(cur.size)) {
            converged = Blb.satisfies(est, cfg.e)
            if (converged || best.forall(_._1.deltaStar > est.deltaStar)) best = Some((est, cur.clone()))
          }
        }
        if (!converged) {
          val worst = cur.iterator.filter(_ != qIdx).maxByOption(fLoc)(Ordering.Double.IeeeOrdering)
          worst.foreach(peel.delete)
          intact = worst.nonEmpty && cur.size >= model.minCommunitySize && withinL(cur.size)
        }
      }
      // §V-C: grow S by Eq. 12's |ΔS| (double it when no structure was
      // found), capped by what G_q has left; 0 ends the search.
      val grow = roundBest.fold(sample.size.toLong)(est =>
        Blb.deltaSampleSize(est.moe, est.deltaStar, cfg.e, BlbM, est.sBlb))
      val added = if (converged) 0L else math.min(gqSize - sample.size, math.max(grow, 16L))
      if (added > 0)
        sample ++= Sampling.weightedSampleMore(fLoc, sample, added.toInt, cfg.seed + 1000 + round)
      val shown = if (converged) best.map(_._1) else roundBest
      rounds += Round(round, shown.fold(Double.NaN)(_.deltaStar), shown.fold(Double.NaN)(_.moe),
        added, (System.nanoTime() - tRound) / 1e6)
    }

    Result(best.fold(Set.empty[Long])(_._2.iterator.map(lg.ids).toSet),
      best.fold(Double.NaN)(_._1.deltaStar), best.fold(Double.NaN)(_._1.moe),
      converged, rounds.toSeq, gqSize, sample.size.toLong)
  }
}
