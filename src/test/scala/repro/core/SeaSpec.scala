package repro.core

import scala.collection.mutable
import repro.{SparkSpec, TestGraphs}
import repro.eval.{Harness, Metrics}
import repro.graph.FromScratch
import repro.synthgraph.SynthGraph

class SeaSpec extends SparkSpec {

  private lazy val planted = SynthGraph.homogeneous(spark, SynthGraph.HomoSpec(
    nCommunities = 5, communitySize = 30, intraDeg = 14, interDeg = 2,
    bridges = 3, seed = 900))

  private val baseCfg = Sea.Config(
    k = 5, gamma = 0.5, eps = 0.4, lambda = 0.5, e = 0.10, seed = 7)

  test("SEA returns a community containing q") {
    val r = Sea.run(planted.graph, 40L, baseCfg)
    assert(r.found)
    assert(r.community.contains(40L))
  }

  test("SEA community is a connected k-core (structure cohesiveness)") {
    val r = Sea.run(planted.graph, 40L, baseCfg)
    val lg = Harness.collectWhole(planted.graph)
    val alive = mutable.BitSet(r.community.map(lg.indexOf).toSeq: _*)
    alive.foreach(i => assert(lg.degreeWithin(i, alive) >= baseCfg.k, s"node $i"))
    assert(FromScratch.componentOf(lg, lg.indexOf(40L), alive) === alive)
  }

  test("SEA recovers (mostly) the planted annotated circle") {
    val r = Sea.run(planted.graph, 40L, baseCfg)
    val truth = planted.groundTruthOf(40L)
    assert(Metrics.f1(r.community, truth) > 0.6, s"f1 too low: ${Metrics.f1(r.community, truth)}")
  }

  test("SEA relative error vs Exact is small on the planted graph") {
    val q = 70L
    val exact = ExactCSAG.search(planted.graph, q, baseCfg.k, baseCfg.gamma,
      stateCap = 500_000L)
    val r = Sea.run(planted.graph, q, baseCfg)
    assert(r.found && exact.community.nonEmpty)
    val err = Metrics.relativeError(r.deltaStar, exact.delta)
    // e=10% guarantee at 95% confidence; allow slack for the single draw.
    assert(err <= 0.35, s"relative error $err (sea=${r.deltaStar}, exact=${exact.delta})")
  }

  test("SEA converged runs satisfy Theorem 11's bound on the MoE") {
    // At e = 0.25 the bound δ*·e/(1+e) is loose enough for the planted
    // communities to converge, so the MoE check below is never skipped.
    Seq(40L, 70L, 10L).foreach { q =>
      val r = Sea.run(planted.graph, q, baseCfg.copy(e = 0.25))
      assert(r.converged, s"q=$q did not converge (moe=${r.moe}, delta*=${r.deltaStar})")
      assert(r.moe <= Blb.accuracyBound(r.deltaStar, 0.25) + 1e-12, s"q=$q")
    }
  }

  test("SEA reports per-round trace with at most maxRounds rounds") {
    val r = Sea.run(planted.graph, 40L, baseCfg)
    assert(r.rounds.nonEmpty)
    assert(r.rounds.size <= Sea.MaxRounds)
    assert(r.rounds.map(_.round) === (1 to r.rounds.size))
  }

  test("SEA G_q respects the Hoeffding minimum size (capped by n)") {
    val r = Sea.run(planted.graph, 40L, baseCfg)
    val n = planted.graph.nodeCount
    val expected = Hoeffding.minGqSize(n, baseCfg.k + 1L, baseCfg.eps, beta = 0.05)
    // the planted graph is connected, so the BFS reaches exactly the minimum
    assert(r.gqSize === math.min(expected, n))
  }

  test("SEA is deterministic in the seed") {
    val a = Sea.run(planted.graph, 40L, baseCfg)
    val b = Sea.run(planted.graph, 40L, baseCfg)
    assert(a.community === b.community)
    assert(a.deltaStar === b.deltaStar)
  }

  test("SEA with a looser error bound converges at least as fast") {
    val tight = Sea.run(planted.graph, 40L, baseCfg.copy(e = 0.02))
    val loose = Sea.run(planted.graph, 40L, baseCfg.copy(e = 0.25))
    assert(loose.rounds.size <= tight.rounds.size)
  }

  test("SEA output is pinned: community, estimates, flags, sizes and every round") {
    // Recorded from an earlier implementation of Sea.run: a refactor must
    // reproduce every field but the times, bit for bit, for the same seed.
    final case class Pin(community: Seq[Long], deltaStar: Double, moe: Double,
        converged: Boolean, gqSize: Long, sampleSize: Long, rounds: Seq[(Double, Double, Long)])
    def same(got: Double, exp: Double, what: String): Unit =
      if (exp.isNaN) assert(got.isNaN, what) else assert(got === exp, what)
    val cases = Seq(
      // converges in round 2
      (40L, baseCfg) -> Pin(Seq(33, 35, 36, 38, 39, 40, 43, 44, 45, 46, 49, 54, 55, 56, 57, 58, 59),
        0.16791626328498754, 0.01281382295064364, converged = true, 123, 77, Seq(
          (0.1685626283705186, 0.015754973474552705, 16L),
          (0.16791626328498754, 0.01281382295064364, 0L))),
      // sampling exhausted
      (10L, baseCfg.copy(e = 0.02)) -> Pin(Seq(3, 4, 5, 6, 8, 9, 10, 11, 13, 14, 15, 24, 28),
        0.16789845366431552, 0.02634504020818996, converged = false, 123, 123, Seq(
          (0.18448965753519664, 0.020539107702968337, 62L),
          (0.16789845366431552, 0.02634504020818996, 0L))),
      // round 1's sample holds no structure
      (10L, baseCfg.copy(lambda = 0.2, e = 0.02)) -> Pin(Seq(3, 4, 5, 6, 8, 9, 10, 11, 13, 14, 15,
        24, 28), 0.16789845366431552, 0.026163541581963823, converged = false, 123, 123, Seq(
          (Double.NaN, Double.NaN, 24L),
          (0.18242027335792763, 0.027767991540344095, 75L),
          (0.16789845366431552, 0.026163541581963823, 0L))),
      (40L, baseCfg.copy(sizeBound = Some((20, 27)), e = 0.02)) -> Pin(Seq(33, 35, 36, 37, 38, 39,
        40, 42, 43, 44, 45, 46, 47, 49, 52, 54, 55, 56, 57, 58, 59),
        0.16559293471350028, 0.014573079217179843, converged = false, 137, 137, Seq(
          (0.18346761478904716, 0.024066441578771053, 69L),
          (0.16559293471350028, 0.014573079217179843, 0L))),
      (130L, baseCfg.copy(k = 4, truss = true)) -> Pin(Seq(127, 130, 135, 136),
        0.07126442918542734, 0.07757567106373649, converged = false, 119, 119, Seq(
          (0.07126442918542734, 0.07757567106373649, 57L),
          (0.07126442918542734, 0.07757567106373649, 3L),
          (0.07126442918542734, 0.07757567106373649, 0L))),
    )
    cases.foreach { case ((q, cfg), pin) =>
      val r = Sea.run(planted.graph, q, cfg)
      val at = s"q=$q $cfg"
      assert(r.community === pin.community.toSet, at)
      same(r.deltaStar, pin.deltaStar, s"$at deltaStar")
      same(r.moe, pin.moe, s"$at moe")
      assert(r.converged === pin.converged, at)
      assert(r.gqSize === pin.gqSize, at)
      assert(r.sampleSize === pin.sampleSize, at)
      assert(r.rounds.map(_.round) === (1 to pin.rounds.size), at)
      r.rounds.zip(pin.rounds).foreach { case (got, (d, moe, added)) =>
        same(got.deltaStar, d, s"$at round ${got.round} deltaStar")
        same(got.moe, moe, s"$at round ${got.round} moe")
        assert(got.addedSamples === added, s"$at round ${got.round}")
      }
    }
  }

  // ---- size-bounded CS (§VI-B) --------------------------------------------

  test("size-bounded SEA returns a community within [l,h]") {
    val r = Sea.run(planted.graph, 40L, baseCfg.copy(sizeBound = Some((8, 20))))
    assert(r.found)
    assert(r.community.size >= 8 && r.community.size <= 20,
      s"size ${r.community.size} outside [8,20]")
  }

  test("size-bounded SEA with a wide bound behaves like unbounded") {
    val r = Sea.run(planted.graph, 40L, baseCfg.copy(sizeBound = Some((6, 1000))))
    assert(r.found)
  }

  // ---- k-truss model (§VI-C) ----------------------------------------------

  test("SEA-Truss returns a connected k-truss containing q") {
    val cfg = baseCfg.copy(k = 4, truss = true)
    val r = Sea.run(planted.graph, 40L, cfg)
    assert(r.found)
    assert(r.community.contains(40L))
    val lg = Harness.collectWhole(planted.graph)
    val alive = mutable.BitSet(r.community.map(lg.indexOf).toSeq: _*)
    // verify via the local truss model: the returned set must be its own
    // maximal connected k-truss
    val truss = new repro.graph.TrussModel(4).maximal(lg, alive, lg.indexOf(40L))
    assert(truss === alive)
  }

  // ---- heterogeneous graphs (§VI-A) ----------------------------------------

  test("SEA on a meta-path projection finds a target-node community") {
    val hetero = SynthGraph.heterogeneous(spark, SynthGraph.HeteroSpec(
      targetType = "A", hubType = "P", nCommunities = 4,
      communitySize = 20, hubsPerCommunity = 50, seed = 901))
    val proj = repro.graph.MetaPath.project(hetero.graph, Seq("A", "P", "A"))
    // e=0.02 forces the greedy refinement to actually peel the numerically
    // deviant periphery before returning.
    val r = Sea.run(proj, 30L, baseCfg.copy(k = 4, e = 0.02))
    assert(r.found)
    assert(r.community.contains(30L))
    // all members are target nodes (< nTargets = 80)
    assert(r.community.forall(_ < 80L))
    // min-δ communities trade recall for attribute tightness; on this tiny
    // 4-block graph the annotated circle holds 9 members, so F1 ≈ 0.5.
    assert(Metrics.f1(r.community, hetero.groundTruthOf(30L)) > 0.4)
  }


  test("SEA on a graph where q has no k-core returns empty") {
    val lg = TestGraphs.local(6, Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    val g = TestGraphs.toAttributed(spark, lg)
    val r = Sea.run(g, 0L, Sea.Config(k = 3, eps = 0.5, lambda = 1.0))
    assert(!r.found)
    assert(!r.converged)
    assert(r.deltaStar.isNaN)
  }

  test("SEA rejects a query node absent from the graph, naming it") {
    val g = TestGraphs.toAttributed(spark, TestGraphs.local(4, Seq((0, 1), (1, 2), (2, 3))))
    val err = intercept[IllegalArgumentException](Sea.run(g, 999L, baseCfg))
    assert(err.getMessage.contains("999"))
  }

  test("SEA on an isolated query node returns empty and not converged") {
    val g = TestGraphs.toAttributed(spark, TestGraphs.local(5, Seq((0, 1), (1, 2), (2, 3))))
    val r = Sea.run(g, 4L, baseCfg.copy(k = 1))
    assert(!r.found)
    assert(!r.converged)
    assert(r.deltaStar.isNaN)
    assert(r.gqSize === 1)
  }
}
