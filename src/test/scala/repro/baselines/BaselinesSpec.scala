package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import repro.TestGraphs
import repro.graph.{CoreModel, LocalGraph, TrussModel}

class BaselinesSpec extends AnyFunSuite {

  /** Two overlapping K4s sharing node 3: {0,1,2,3} with tags "a","b";
    * {3,4,5,6} with tags "a" only. q = 0.
    */
  private def twoCliques: LocalGraph = LocalGraph.build(
    Seq(
      (0L, Set("a", "b"), Array(0.1)), (1L, Set("a", "b"), Array(0.1)),
      (2L, Set("a", "b"), Array(0.15)), (3L, Set("a"), Array(0.2)),
      (4L, Set("a"), Array(0.9)), (5L, Set("a"), Array(0.95)), (6L, Set("a"), Array(0.9)),
    ),
    (for (a <- 0 until 4; b <- a + 1 until 4) yield (a.toLong, b.toLong)) ++
      (for (a <- 3 until 7; b <- a + 1 until 7) yield (a.toLong, b.toLong)),
  )

  // ---- ACQ ------------------------------------------------------------------

  test("ACQ finds the community sharing the most of q's attributes") {
    val lg = twoCliques
    val r = Acq.run(lg, 0, new CoreModel(3))
    // sharing {"a","b"} needs {0,1,2}, which is not a 3-core; with W={"a"}
    // the whole two-clique graph qualifies (every node has "a") — exactly
    // ACQ's equality-matching blindness to the numerical attributes.
    assert(r.sharedAttrs === Set("a"))
    assert(r.community === Set(0L, 1L, 2L, 3L, 4L, 5L, 6L))
  }

  test("ACQ with k=2 can afford the full shared set") {
    val lg = twoCliques
    val r = Acq.run(lg, 0, new CoreModel(2))
    // {0,1,2} is a 2-core all sharing both "a" and "b"
    assert(r.sharedAttrs === Set("a", "b"))
    assert(r.community === Set(0L, 1L, 2L))
  }

  test("ACQ returns a structure-valid community even with no shared attrs") {
    val lg = LocalGraph.build(
      Seq((0L, Set("x"), Array(0.0)), (1L, Set("y"), Array(0.0)),
        (2L, Set("z"), Array(0.0)), (3L, Set("w"), Array(0.0))),
      for (a <- 0L until 4L; b <- a + 1 until 4L) yield (a, b),
    )
    val r = Acq.run(lg, 0, new CoreModel(3))
    assert(r.community === Set(0L, 1L, 2L, 3L))
    assert(r.sharedAttrs.isEmpty)
  }

  test("ACQ returns empty when q has no k-core") {
    val lg = TestGraphs.local(3, Seq((0, 1), (1, 2)))
    val r = Acq.run(lg, 0, new CoreModel(2))
    assert(r.community.isEmpty)
  }

  test("ACQ works with the truss model too") {
    val lg = twoCliques
    val r = Acq.run(lg, 0, new TrussModel(4))
    assert(r.community.nonEmpty)
    assert(r.community.contains(0L))
  }

  // ---- LocATC ---------------------------------------------------------------

  test("LocATC score: matches the ATC definition") {
    val lg = twoCliques
    val all = mutable.BitSet(0 to 6: _*)
    // a: 7 nodes, b: 3 nodes → 49/7 + 9/7
    assert(math.abs(LocAtc.score(lg, 0, all) - (49.0 / 7 + 9.0 / 7)) < 1e-12)
  }

  test("LocATC improves the attribute-coverage score by peeling") {
    val lg = twoCliques
    val r = LocAtc.run(lg, 0, new CoreModel(3))
    val base = LocAtc.score(lg, 0, new CoreModel(3).maximal(lg, lg.allAlive, 0))
    assert(r.score >= base - 1e-12)
    assert(r.community.contains(0L))
  }

  test("LocATC: coverage favours the big mixed community at k=2") {
    val lg = twoCliques
    val r = LocAtc.run(lg, 0, new CoreModel(2))
    // score(all 7) = 49/7 + 9/7 ≈ 8.29 beats the pure clique {0,1,2} (6.0) —
    // the coverage metric's preference for size that the paper criticizes.
    assert(r.community === Set(0L, 1L, 2L, 3L, 4L, 5L, 6L))
    assert(math.abs(r.score - 58.0 / 7) < 1e-12)
  }

  test("LocATC returns empty when q has no k-core") {
    val lg = TestGraphs.local(3, Seq((0, 1)))
    assert(LocAtc.run(lg, 0, new CoreModel(2)).community.isEmpty)
  }

  // ---- VAC ------------------------------------------------------------------

  test("VAC peels the endpoint of the worst pair while the core survives") {
    val lg = twoCliques
    val r = Vac.run(lg, 0, lg.distancesTo(0, 0.5), new CoreModel(3), gamma = 0.5)
    assert(r.community.contains(0L))
    // {0,1,2,3} has a strictly smaller min-max than the full two-clique graph
    val full = Vac.maxPairwise(lg.allAlive, lg.pairDistance(_, _, 0.5))._3
    assert(r.minMax <= full + 1e-12)
  }

  test("VAC halts when deleting the worst pair would collapse the core") {
    // K4 where 3 is the worst node: removing anything kills the 3-core.
    val lg = LocalGraph.build(
      Seq((0L, Set("a"), Array(0.0)), (1L, Set("a"), Array(0.0)),
        (2L, Set("a"), Array(0.1)), (3L, Set("b"), Array(1.0))),
      for (a <- 0L until 4L; b <- a + 1 until 4L) yield (a, b),
    )
    val r = Vac.run(lg, 0, lg.distancesTo(0, 0.5), new CoreModel(3), gamma = 0.5)
    assert(r.community === Set(0L, 1L, 2L, 3L)) // Fig. 1(d) behaviour
  }

  test("VAC returns empty community when q has no k-core") {
    val lg = TestGraphs.local(3, Seq((0, 1)))
    val r = Vac.run(lg, 0, lg.distancesTo(0, 0.5), new CoreModel(2), 0.5)
    assert(r.community.isEmpty)
  }

  test("E-VAC min-max is never worse than approximate VAC") {
    var compared = 0
    (1 to 5).foreach { s =>
      val lg = TestGraphs.randomLocal(10, 0.5, seed = 40 + s)
      val model = new CoreModel(2)
      val f = lg.distancesTo(0, 0.5)
      val approx = Vac.run(lg, 0, f, model, 0.5)
      val exact = Vac.runExact(lg, 0, f, model, 0.5, stateCap = 100000)
      if (approx.community.nonEmpty && exact.community.nonEmpty && !exact.capped) {
        compared += 1
        assert(exact.minMax <= approx.minMax + 1e-9,
          s"seed=$s exact=${exact.minMax} approx=${approx.minMax}")
        // E-VAC reports the min-max of the community it returns.
        val own = Vac.maxPairwise(lg.localSet(exact.community), lg.pairDistance(_, _, 0.5))._3
        assert(exact.minMax === own, s"seed=$s")
      }
    }
    assert(compared >= 1, "no seed had both communities and an uncapped E-VAC")
  }

  test("E-VAC respects the state cap (the paper's '>1 week' behaviour)") {
    val lg = TestGraphs.randomLocal(14, 0.6, seed = 77)
    val r = Vac.runExact(lg, 0, lg.distancesTo(0, 0.5), new CoreModel(2), 0.5, stateCap = 20)
    assert(r.capped)
  }

  test("maxPairwise: exact value on a known pair") {
    val lg = LocalGraph.build(
      Seq((0L, Set("a"), Array(0.0)), (1L, Set("a"), Array(1.0)), (2L, Set("a"), Array(0.5))),
      Seq((0L, 1L), (1L, 2L), (0L, 2L)),
    )
    val (u, v, d) = Vac.maxPairwise(lg.allAlive, lg.pairDistance(_, _, 0.0))
    assert(Set(u, v) === Set(0, 1))
    assert(math.abs(d - 1.0) < 1e-12)
  }
}
