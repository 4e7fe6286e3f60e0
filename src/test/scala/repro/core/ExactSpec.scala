package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import repro.TestGraphs
import repro.core.ExactCSAG.Pruning
import repro.graph.{CoreModel, FromScratch, TrussModel}

class ExactSpec extends AnyFunSuite {

  private def fOf(lg: repro.graph.LocalGraph, q: Int, gamma: Double = 0.5): Array[Double] =
    Array.tabulate(lg.n)(i => lg.pairDistance(i, q, gamma))

  // ---- agreement with brute force ------------------------------------------

  test("run matches brute force on random small graphs (all prunings)") {
    (1 to 12).foreach { s =>
      val lg = TestGraphs.randomLocal(9, 0.5, seed = s)
      val q = 0
      val k = 2
      val f = fOf(lg, q)
      val brute = TestGraphs.bruteBestKCore(lg, q, k, f)
      val got = ExactCSAG.run(lg, q, f, new CoreModel(k))
      brute match {
        case None =>
          assert(got.community.isEmpty, s"seed=$s")
        case Some((_, bd)) =>
          assert(math.abs(got.delta - bd) < 1e-9, s"seed=$s got=${got.delta} brute=$bd")
      }
    }
  }

  test("run matches brute force with k=3") {
    (1 to 8).foreach { s =>
      val lg = TestGraphs.randomLocal(10, 0.55, seed = 100 + s)
      val f = fOf(lg, 0)
      val brute = TestGraphs.bruteBestKCore(lg, 0, 3, f)
      val got = ExactCSAG.run(lg, 0, f, new CoreModel(3))
      brute match {
        case None            => assert(got.community.isEmpty, s"seed=$s")
        case Some((_, bd))   => assert(math.abs(got.delta - bd) < 1e-9, s"seed=$s")
      }
    }
  }

  test("all four pruning configurations return the same optimum") {
    val configs = Seq(ExactCSAG.Pruning.All, ExactCSAG.Pruning.NoP3,
      ExactCSAG.Pruning.OnlyP1, ExactCSAG.Pruning.None)
    (1 to 6).foreach { s =>
      val lg = TestGraphs.randomLocal(8, 0.55, seed = 200 + s)
      val f = fOf(lg, 0)
      val deltas = configs.map(c => ExactCSAG.run(lg, 0, f, new CoreModel(2), c).delta)
      deltas.sliding(2).foreach {
        case Seq(a, b) =>
          assert((a.isNaN && b.isNaN) || math.abs(a - b) < 1e-9, s"seed=$s: $deltas")
        case _ =>
      }
    }
  }

  test("pruning strictly reduces explored states (monotone in Table IV order)") {
    var anyStrict = false
    (1 to 5).foreach { s =>
      val lg = TestGraphs.randomLocal(9, 0.6, seed = 300 + s)
      val f = fOf(lg, 0)
      val all = ExactCSAG.run(lg, 0, f, new CoreModel(2), ExactCSAG.Pruning.All).states
      val noP3 = ExactCSAG.run(lg, 0, f, new CoreModel(2), ExactCSAG.Pruning.NoP3).states
      val onlyP1 = ExactCSAG.run(lg, 0, f, new CoreModel(2), ExactCSAG.Pruning.OnlyP1).states
      val none = ExactCSAG.run(lg, 0, f, new CoreModel(2), ExactCSAG.Pruning.None,
        stateCap = 2_000_000L).states
      assert(all <= noP3 && noP3 <= onlyP1, s"seed=$s: $all $noP3 $onlyP1")
      assert(onlyP1 <= none, s"seed=$s: onlyP1=$onlyP1 none=$none")
      if (none > onlyP1) anyStrict = true
    }
    assert(anyStrict, "duplicate pruning never helped on any seed")
  }

  test("state cap: reports capped and still returns a community") {
    val lg = TestGraphs.randomLocal(12, 0.6, seed = 400)
    val f = fOf(lg, 0)
    val r = ExactCSAG.run(lg, 0, f, new CoreModel(2), ExactCSAG.Pruning.None, stateCap = 50)
    assert(r.capped)
    assert(r.states <= 50)
    assert(r.community.nonEmpty)
  }

  test("no community when q is not in any k-core") {
    val lg = TestGraphs.local(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val r = ExactCSAG.run(lg, 0, fOf(lg, 0), new CoreModel(2))
    assert(r.community.isEmpty)
    assert(r.delta.isNaN)
    assert(r.states === 0L)
  }

  test("root-only graph (clique of size k+1): optimum is the clique itself") {
    val lg = TestGraphs.local(4, for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b))
    val f = fOf(lg, 0)
    val r = ExactCSAG.run(lg, 0, f, new CoreModel(3))
    assert(r.community === Set(0L, 1L, 2L, 3L))
    val expected = (1 to 3).map(f(_)).sum / 3
    assert(math.abs(r.delta - expected) < 1e-12)
  }

  test("result community is always a connected k-core containing q") {
    (1 to 8).foreach { s =>
      val lg = TestGraphs.randomLocal(12, 0.45, seed = 500 + s)
      val k = 2
      val r = ExactCSAG.run(lg, 0, fOf(lg, 0), new CoreModel(k))
      assert(r.community.nonEmpty, s"seed=$s")
      assert(r.community.contains(0L))
      val alive = scala.collection.mutable.BitSet(r.community.map(lg.indexOf).toSeq: _*)
      alive.foreach(i => assert(lg.degreeWithin(i, alive) >= k))
      assert(FromScratch.componentOf(lg, 0, alive) === alive)
    }
  }

  test("optimal delta never exceeds the root delta") {
    (1 to 6).foreach { s =>
      val lg = TestGraphs.randomLocal(11, 0.5, seed = 600 + s)
      val f = fOf(lg, 0)
      val model = new CoreModel(2)
      val root = model.maximal(lg, lg.allAlive, 0)
      assert(root.nonEmpty, s"seed=$s")
      val rootDelta = root.iterator.filter(_ != 0).map(f).sum / (root.size - 1)
      val r = ExactCSAG.run(lg, 0, f, model)
      assert(r.delta <= rootDelta + 1e-12, s"seed=$s")
    }
  }

  test("search (distributed end-to-end) agrees with local run") {
    val spark = repro.SparkSpec.shared
    (1 to 3).foreach { s =>
      val lg = TestGraphs.randomLocal(12, 0.5, seed = 700 + s)
      val g = TestGraphs.toAttributed(spark, lg)
      val got = ExactCSAG.search(g, 0L, k = 2, gamma = 0.5)
      // local reference: normalize num attrs the same way search does
      val (mins, rngs) = AttrDistance.numStats(g)
      val zLg = repro.graph.LocalGraph.build(
        (0 until lg.n).map(i => (lg.ids(i), lg.text(i), AttrDistance.normalize(lg.num(i), mins, rngs))),
        for { u <- 0 until lg.n; v <- lg.adj(u) if u < v } yield (lg.ids(u), lg.ids(v)),
      )
      val f = Array.tabulate(zLg.n)(i => zLg.pairDistance(i, zLg.indexOf(0L), 0.5))
      val expected = ExactCSAG.run(zLg, zLg.indexOf(0L), f, new CoreModel(2))
      assert((got.delta.isNaN && expected.delta.isNaN) ||
        math.abs(got.delta - expected.delta) < 1e-9, s"seed=$s")
    }
  }

  test("search rejects a query node absent from the graph, naming it") {
    val g = TestGraphs.toAttributed(repro.SparkSpec.shared, TestGraphs.randomLocal(12, 0.5, seed = 701))
    val ex = intercept[IllegalArgumentException](ExactCSAG.search(g, 99L, k = 2))
    assert(ex.getMessage.contains("99"))
  }

  test("search: empty result when q is present but outside every k-core") {
    // K4 {0..3} plus the tail 3-4: node 4 is in the graph but in no 3-core.
    val lg = TestGraphs.local(5,
      (for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b)) :+ ((3, 4)))
    val g = TestGraphs.toAttributed(repro.SparkSpec.shared, lg)
    val r = ExactCSAG.search(g, 4L, k = 3)
    assert(r.community.isEmpty)
    assert(r.delta.isNaN)
    assert(r.states === 0L)
    assert(ExactCSAG.search(g, 0L, k = 3).community === Set(0L, 1L, 2L, 3L))
  }

  test("objective override: min-max objective is respected") {
    val lg = TestGraphs.randomLocal(9, 0.6, seed = 800)
    val f = fOf(lg, 0)
    val obj: scala.collection.mutable.BitSet => Double =
      a => a.size.toDouble // degenerate objective: prefer the smallest state
    val r = ExactCSAG.run(lg, 0, f, new CoreModel(2), ExactCSAG.Pruning.OnlyP1,
      objective = Some(obj))
    val rDefault = ExactCSAG.run(lg, 0, f, new CoreModel(2), ExactCSAG.Pruning.OnlyP1)
    assert(r.community.size <= rDefault.community.size)
    // P2 and P3 bound δ, not another objective.
    Seq(ExactCSAG.Pruning.NoP3, ExactCSAG.Pruning(p2 = false)).foreach { p =>
      assertThrows[IllegalArgumentException](ExactCSAG.run(lg, 0, f, new CoreModel(2), p, objective = Some(obj)))
    }
  }

  // ---- deep search trees ---------------------------------------------------

  test("a search tree as deep as a 3000-node path runs on a 256 KB thread stack") {
    val n = 3000
    val lg = TestGraphs.local(n, (0 until n - 1).map(i => (i, i + 1)))
    // f rises away from q = 0, so the first branch peels the path from its far
    // end, one node per level, down to the optimum {q, 1}. The cap stops the
    // search soon after; the branches it leaves are shallow.
    val f = Array.tabulate(n)(i => i.toDouble / (n - 1))
    var outcome: Either[Throwable, ExactCSAG.Result] = null
    val t = new Thread(null, () => outcome =
      try Right(ExactCSAG.run(lg, 0, f, CoreModel(1), stateCap = 2L * n))
      catch { case e: StackOverflowError => Left(e) }, "deep-exact", 256L * 1024)
    t.start()
    t.join()
    val r = outcome.fold(e => fail(s"enumeration overflowed the stack: $e"), identity)
    assert(r.community === Set(0L, 1L))
    assert(r.delta === f(1))
    assert(r.capped)
  }

  // ---- pinned output -------------------------------------------------------

  private def outcome(r: ExactCSAG.Result): (Set[Long], Double, Long, Boolean) =
    (r.community, r.delta, r.states, r.capped)

  // Recorded with the enumeration that re-peeled a cloned graph per state;
  // the apply/undo enumeration must reproduce every field exactly.
  test("Exact output is pinned: community, delta, states and capped") {
    val pinned = Seq(
    (11, CoreModel(3), Pruning.All, (Set(0L, 3L, 4L, 5L, 8L, 11L), 0.3470057461877813, 1725L, false)),
    (11, CoreModel(3), Pruning.NoP3, (Set(0L, 3L, 4L, 5L, 8L, 11L), 0.3470057461877813, 1759L, false)),
    (11, CoreModel(3), Pruning.OnlyP1, (Set(0L, 3L, 4L, 5L, 8L, 11L), 0.3470057461877813, 4000L, true)),
    (11, CoreModel(3), Pruning.None, (Set(0L, 5L, 8L, 9L, 10L, 11L), 0.36191340028096886, 4000L, true)),
    (11, TrussModel(4), Pruning.All, (Set(0L, 2L, 5L, 8L, 11L), 0.37330692488336725, 308L, false)),
    (11, TrussModel(4), Pruning.NoP3, (Set(0L, 2L, 5L, 8L, 11L), 0.37330692488336725, 317L, false)),
    (11, TrussModel(4), Pruning.OnlyP1, (Set(0L, 2L, 5L, 8L, 11L), 0.37330692488336725, 2653L, false)),
    (11, TrussModel(4), Pruning.None, (Set(0L, 5L, 9L, 11L), 0.40440948705099716, 4000L, true)),
    (12, CoreModel(3), Pruning.All, (Set(0L, 1L, 2L, 3L, 6L, 8L), 0.4691847435581045, 1394L, false)),
    (12, CoreModel(3), Pruning.NoP3, (Set(0L, 1L, 2L, 3L, 6L, 8L), 0.4691847435581045, 1405L, false)),
    (12, CoreModel(3), Pruning.OnlyP1, (Set(0L, 1L, 2L, 3L, 6L, 8L), 0.4691847435581045, 4000L, true)),
    (12, CoreModel(3), Pruning.None, (Set(0L, 3L, 6L, 8L, 11L), 0.538031878780808, 4000L, true)),
    (12, TrussModel(4), Pruning.All, (Set(0L, 2L, 3L, 6L), 0.5201485539249192, 34L, false)),
    (12, TrussModel(4), Pruning.NoP3, (Set(0L, 2L, 3L, 6L), 0.5201485539249192, 39L, false)),
    (12, TrussModel(4), Pruning.OnlyP1, (Set(0L, 2L, 3L, 6L), 0.5201485539249192, 90L, false)),
    (12, TrussModel(4), Pruning.None, (Set(0L, 2L, 3L, 6L), 0.5201485539249192, 491L, false)),
    (13, CoreModel(3), Pruning.All, (Set(0L, 1L, 5L, 7L, 8L, 9L, 12L, 13L), 0.43378439378151057, 947L, false)),
    (13, CoreModel(3), Pruning.NoP3, (Set(0L, 1L, 5L, 7L, 8L, 9L, 12L, 13L), 0.43378439378151057, 953L, false)),
    (13, CoreModel(3), Pruning.OnlyP1, (Set(0L, 1L, 5L, 7L, 8L, 9L, 12L, 13L), 0.43378439378151057, 4000L, true)),
    (13, CoreModel(3), Pruning.None, (Set(0L, 5L, 7L, 8L, 9L, 12L, 13L), 0.4352157508159434, 4000L, true)),
    (13, TrussModel(4), Pruning.All, (Set(0L, 3L, 5L, 13L), 0.43780182554209324, 174L, false)),
    (13, TrussModel(4), Pruning.NoP3, (Set(0L, 3L, 5L, 13L), 0.43780182554209324, 176L, false)),
    (13, TrussModel(4), Pruning.OnlyP1, (Set(0L, 3L, 5L, 13L), 0.43780182554209324, 980L, false)),
    (13, TrussModel(4), Pruning.None, (Set(0L, 3L, 5L, 13L), 0.43780182554209324, 4000L, true)),
    (14, CoreModel(3), Pruning.All, (Set(0L, 2L, 4L, 5L, 8L, 9L, 12L), 0.494559069884164, 1114L, false)),
    (14, CoreModel(3), Pruning.NoP3, (Set(0L, 2L, 4L, 5L, 8L, 9L, 12L), 0.494559069884164, 1144L, false)),
    (14, CoreModel(3), Pruning.OnlyP1, (Set(0L, 2L, 4L, 5L, 8L, 9L, 12L), 0.494559069884164, 4000L, true)),
    (14, CoreModel(3), Pruning.None, (Set(0L, 4L, 6L, 8L, 11L, 12L), 0.5096744022712549, 4000L, true)),
    (14, TrussModel(4), Pruning.All, (Set(0L, 2L, 3L, 4L, 5L, 8L, 9L), 0.5309320144973468, 122L, false)),
    (14, TrussModel(4), Pruning.NoP3, (Set(0L, 2L, 3L, 4L, 5L, 8L, 9L), 0.5309320144973468, 129L, false)),
    (14, TrussModel(4), Pruning.OnlyP1, (Set(0L, 2L, 3L, 4L, 5L, 8L, 9L), 0.5309320144973468, 1029L, false)),
    (14, TrussModel(4), Pruning.None, (Set(0L, 2L, 4L, 5L, 6L, 8L, 9L), 0.5342703356384564, 4000L, true)),
    )
    pinned.foreach { case (seed, model, pruning, expected) =>
      val lg = TestGraphs.randomLocal(14, 0.5, seed)
      val r = ExactCSAG.run(lg, 0, lg.distancesTo(0, 0.5), model, pruning, stateCap = 4000)
      assert(outcome(r) === expected, s"seed=$seed $model $pruning")
    }
    val lg = TestGraphs.randomLocal(14, 0.5, 11)
    val f = lg.distancesTo(0, 0.5)
    // E-VAC's min-max objective, and Table VI's size filter.
    val minMax: mutable.BitSet => Double = a =>
      (for (i <- a.iterator; j <- a.iterator if i < j) yield lg.pairDistance(i, j, 0.5))
        .foldLeft(0.0)(math.max)
    assert(outcome(ExactCSAG.run(lg, 0, f, CoreModel(3), Pruning.OnlyP1, 4000, Some(minMax))) ===
      (Set(0L, 4L, 6L, 9L), 0.5587769192122398, 4000L, true))
    assert(outcome(ExactCSAG.run(lg, 0, f, CoreModel(3), Pruning.OnlyP1, 4000,
      accept = Some(a => a.size >= 6 && a.size <= 8))) ===
      (Set(0L, 3L, 4L, 5L, 8L, 11L), 0.3470057461877813, 4000L, true))
  }

  // Recorded before the search stopped a P1 duplicate inside the peel's
  // cascade. The 14-node pins above stop after 4000 states; these run a
  // maximal 6-core of all 46 nodes (366 edges, facebook-lite's size) and its
  // 5-truss to the cap, so cascades that are cut deep in the tree count.
  test("Exact output is pinned on a 46-node structure that caps") {
    val lg = TestGraphs.randomLocal(46, 0.33, 47)
    val f = lg.distancesTo(0, 0.5)
    val pinned = Seq(
    (CoreModel(6), Pruning.All, (Set(0L, 4L, 6L, 8L, 10L, 13L, 14L, 16L, 17L, 19L, 21L, 24L, 25L, 34L, 39L, 40L),
      0.39013942221979986, 100000L, true)),
    (CoreModel(6), Pruning.OnlyP1, (Set(0L, 3L, 4L, 8L, 10L, 14L, 15L, 16L, 17L, 19L, 24L, 25L, 30L, 34L, 39L, 40L),
      0.39046954936112777, 100000L, true)),
    (TrussModel(5), Pruning.All, (Set(0L, 4L, 6L, 8L, 10L, 13L, 14L, 16L, 17L, 19L, 24L, 25L, 30L, 34L, 39L, 40L, 42L),
      0.40217494834282075, 100000L, true)),
    (TrussModel(5), Pruning.OnlyP1, (Set(0L, 4L, 6L, 8L, 10L, 13L, 14L, 16L, 17L, 19L, 24L, 25L, 30L, 34L, 39L, 40L, 42L),
      0.40217494834282075, 100000L, true)),
    )
    assert(CoreModel(6).maximal(lg, lg.allAlive, 0).size === 46)
    assert(TrussModel(5).maximal(lg, lg.allAlive, 0).size === 45)
    pinned.foreach { case (model, pruning, expected) =>
      val r = ExactCSAG.run(lg, 0, f, model, pruning, stateCap = 100000)
      assert(outcome(r) === expected, s"$model $pruning")
    }
  }
}
