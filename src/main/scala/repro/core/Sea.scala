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
  *     and repeat, up to `maxRounds` (the paper's N_e ≤ 5).
  *
  * Extensions: `truss = true` switches the community model to k-truss
  * (§VI-C); `sizeBound = Some((l,h))` enables size-bounded CS (§VI-B);
  * heterogeneous graphs (§VI-A) are handled by running on
  * `MetaPath.project(g, P)` — a (k,P)-core is a k-core of the projection.
  */
object Sea {

  final case class Config(
      k: Int = 4,
      gamma: Double = 0.5,
      eps: Double = 0.05,      // Hoeffding ε
      beta: Double = 0.05,     // Hoeffding 1−β = 95%
      lambda: Double = 0.2,    // initial sampling fraction
      e: Double = 0.02,        // user error bound
      alpha: Double = 0.05,    // CI confidence 1−α = 95%
      blbM: Double = 0.6,      // BLB scale factor m
      blbR: Int = 60,          // bootstrap resamples per subsample
      maxRounds: Int = 5,      // N_e cap
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
    def ms(since: Long): Double = (System.nanoTime() - since) / 1e6

    val model: CohesionModel =
      if (cfg.truss) new TrussModel(cfg.k) else new CoreModel(cfg.k)
    val n = g.nodeCount

    // --- Step 1: population sizing + G_q + initial sample -----------------
    val minNodes = cfg.sizeBound.map(_._1.toLong)
      .getOrElse(model.minCommunitySize.toLong)
    val minGq = Hoeffding.minGqSize(n, minNodes, cfg.eps, cfg.beta)
    // G_q is Hoeffding-bounded and small by construction: the BFS returns it
    // collected, and sampling, estimation and the greedy peel run on the
    // driver from here on.
    val lg = PriorityBfs.collectGq(g, q, minGq, cfg.gamma)
    val qIdx = lg.indexOf(q)
    val fLoc = lg.distancesTo(qIdx, cfg.gamma)
    val gqSize = lg.n.toLong

    val initial = math.max((cfg.lambda * gqSize).toLong, model.minCommunitySize * 3L)
      .min(gqSize).toInt
    val sample = Sampling.weightedSample(fLoc, qIdx, initial, cfg.seed)

    // --- Steps 2-3: estimate, greedy-search, incrementally resample -------
    val rounds = mutable.ArrayBuffer.empty[Round]
    var bestCommunity = Set.empty[Long]
    var bestDelta = Double.PositiveInfinity
    var bestMoe = Double.NaN

    def sizeOk(sz: Int): Boolean = cfg.sizeBound match {
      case Some((l, h)) => sz >= l && sz <= h
      case None         => true
    }

    var round = 0
    var done = false
    while (!done && round < cfg.maxRounds) {
      round += 1
      val tRound = System.nanoTime()

      var cur = model.maximal(lg, sample, qIdx)
      var roundBest: Option[Blb.Estimate] = None

      def estimateOf(alive: mutable.BitSet): Blb.Estimate = {
        val fv = alive.iterator.filter(_ != qIdx).map(fLoc).toArray
        Blb.estimate(fv, cfg.alpha, cfg.blbM, cfg.blbR, cfg.seed + round)
      }

      // Greedy candidate search (§V-B): peel the most dissimilar node.
      var greedyDone = cur.isEmpty
      while (!greedyDone && !done) {
        val overH = cfg.sizeBound.exists { case (_, h) => cur.size > h }
        if (!overH) {
          val est = estimateOf(cur)
          if (roundBest.forall(_.deltaStar > est.deltaStar)) roundBest = Some(est)
          if (sizeOk(cur.size) && est.deltaStar < bestDelta) {
            bestDelta = est.deltaStar
            bestMoe = est.moe
            bestCommunity = cur.iterator.map(lg.ids).toSet
          }
          if (sizeOk(cur.size) && Blb.satisfies(est, cfg.e)) {
            rounds += Round(round, est.deltaStar, est.moe, 0L, ms(tRound))
            bestDelta = est.deltaStar
            bestMoe = est.moe
            bestCommunity = cur.iterator.map(lg.ids).toSet
            done = true
          }
        }
        if (!done) {
          // Delete the node most dissimilar to q and re-maintain.
          var v = -1
          var fv = Double.NegativeInfinity
          cur.foreach(i => if (i != qIdx && fLoc(i) > fv) { fv = fLoc(i); v = i })
          if (v < 0) greedyDone = true
          else {
            val without = cur.clone(); without -= v
            cur = model.maximal(lg, without, qIdx)
            val belowL = cfg.sizeBound.exists { case (l, _) => cur.size < l }
            if (cur.isEmpty || cur.size < model.minCommunitySize || belowL)
              greedyDone = true
          }
        }
      }

      if (!done) {
        // §V-C: enlarge S by Eq. 12 and retry (or give up when exhausted).
        val delta = roundBest match {
          case Some(est) =>
            math.max(Blb.deltaSampleSize(est.moe, est.deltaStar, cfg.e, cfg.blbM, est.sBlb), 16L)
          case None => math.max(sample.size.toLong, 16L) // no structure found — double S
        }
        val addable = math.min(delta, gqSize - sample.size)
        if (addable <= 0) {
          rounds += Round(round, roundBest.map(_.deltaStar).getOrElse(Double.NaN),
            roundBest.map(_.moe).getOrElse(Double.NaN), 0L, ms(tRound))
          done = true // sampling exhausted; return best effort
        } else {
          sample ++= Sampling.weightedSampleMore(fLoc, sample, addable.toInt,
            cfg.seed + 1000 + round)
          rounds += Round(round, roundBest.map(_.deltaStar).getOrElse(Double.NaN),
            roundBest.map(_.moe).getOrElse(Double.NaN), addable, ms(tRound))
        }
      }
    }

    val converged = bestCommunity.nonEmpty && !bestMoe.isNaN &&
      bestMoe <= Blb.accuracyBound(bestDelta, cfg.e)
    Result(bestCommunity, bestDelta, bestMoe, converged, rounds.toSeq,
      gqSize, sample.size.toLong)
  }
}
