package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.CoreModel

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
      assert(lg.componentOf(0, alive) === alive)
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
  }
}
