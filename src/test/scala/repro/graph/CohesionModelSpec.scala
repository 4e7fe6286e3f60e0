package repro.graph

import scala.collection.mutable
import repro.{SparkSpec, TestGraphs}
import repro.TestGraphs.sameGraph

class CohesionModelSpec extends SparkSpec {

  private def k4plusTail: LocalGraph =
    // K4 on {0,1,2,3} with a tail 3-4-5
    TestGraphs.local(6, Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))

  // ---- CoreModel ----------------------------------------------------------

  test("CoreModel: maximal connected 3-core is the K4, tail is peeled") {
    val lg = k4plusTail
    val got = new CoreModel(3).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0, 1, 2, 3))
  }

  test("CoreModel: 1-core keeps the whole connected component") {
    val lg = k4plusTail
    assert(new CoreModel(1).maximal(lg, lg.allAlive, 0) === mutable.BitSet(0 to 5: _*))
  }

  test("CoreModel: empty when q is peeled away") {
    val lg = k4plusTail
    assert(new CoreModel(3).maximal(lg, lg.allAlive, 5).isEmpty)
  }

  test("CoreModel: empty when q not alive") {
    val lg = k4plusTail
    assert(new CoreModel(2).maximal(lg, mutable.BitSet(0, 1, 2), 5).isEmpty)
  }

  test("CoreModel: restricted to q's component (two 3-cores)") {
    // two disjoint K4s
    val lg = TestGraphs.local(8,
      (for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b)) ++
      (for (a <- 4 until 8; b <- a + 1 until 8) yield (a, b)))
    val got = new CoreModel(3).maximal(lg, lg.allAlive, 5)
    assert(got === mutable.BitSet(4, 5, 6, 7))
  }

  test("CoreModel: does not mutate the alive set") {
    val lg = k4plusTail
    val alive = lg.allAlive
    new CoreModel(3).maximal(lg, alive, 0)
    assert(alive === lg.allAlive)
  }

  test("CoreModel: every node of the result has degree >= k inside it") {
    (1 to 6).foreach { s =>
      val lg = TestGraphs.randomLocal(40, 0.15, seed = s)
      (2 to 4).foreach { k =>
        val core = new CoreModel(k).maximal(lg, lg.allAlive, 0)
        core.foreach(i => assert(lg.degreeWithin(i, core) >= k, s"seed=$s k=$k node=$i"))
        if (core.nonEmpty) assert(FromScratch.componentOf(lg, 0, core) === core)
      }
    }
  }

  test("CoreModel: result is the component of the global k-core (maximality)") {
    (1 to 4).foreach { s =>
      val lg = TestGraphs.randomLocal(30, 0.2, seed = 100 + s)
      val k = 3
      val coreness = lg.coreness()
      val inCore = mutable.BitSet((0 until lg.n).filter(coreness(_) >= k): _*)
      val expected = FromScratch.componentOf(lg, 0, inCore)
      val got = new CoreModel(k).maximal(lg, lg.allAlive, 0)
      assert(got === (if (expected(0)) expected else mutable.BitSet.empty), s"seed=$s")
    }
  }

  test("CoreModel: minCommunitySize is k+1") {
    assert(new CoreModel(4).minCommunitySize === 5)
  }

  // ---- TrussModel ---------------------------------------------------------

  test("TrussModel: K4 is a 4-truss") {
    val lg = k4plusTail
    val got = new TrussModel(4).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0, 1, 2, 3))
  }

  test("TrussModel: K4 plus tail at k=3 keeps only the triangle-connected part") {
    val lg = k4plusTail
    // tail edges (3,4),(4,5) are in no triangle → dropped at k=3
    val got = new TrussModel(3).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0, 1, 2, 3))
  }

  test("TrussModel: k=2 keeps every edge (support >= 0)") {
    val lg = k4plusTail
    val got = new TrussModel(2).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0 to 5: _*))
  }

  test("TrussModel: empty when q has no surviving edge") {
    val lg = k4plusTail
    assert(new TrussModel(3).maximal(lg, lg.allAlive, 5).isEmpty)
  }

  test("TrussModel: matches brute-force truss peel on random graphs") {
    (1 to 5).foreach { s =>
      val lg = TestGraphs.randomLocal(25, 0.25, seed = 200 + s)
      (3 to 4).foreach { k =>
        // q's connected component over the brute-force truss edges, empty
        // when q keeps no edge.
        val truss = TestGraphs.local(lg.n, TestGraphs.bruteTrussEdges(lg, k).toSeq)
        val component = FromScratch.componentOf(truss, 0, truss.allAlive)
        val expected = if (component.size == 1) mutable.BitSet.empty else component
        assert(new TrussModel(k).maximal(lg, lg.allAlive, 0) === expected, s"seed=$s k=$k")
      }
    }
  }

  test("TrussModel: a k-truss is a (k-1)-core") {
    (1 to 4).foreach { s =>
      val lg = TestGraphs.randomLocal(30, 0.3, seed = 300 + s)
      val k = 4
      val truss = new TrussModel(k).maximal(lg, lg.allAlive, 0)
      truss.foreach(i => assert(lg.degreeWithin(i, truss) >= k - 1, s"seed=$s node=$i"))
    }
  }

  test("TrussModel: minCommunitySize is k") {
    assert(new TrussModel(4).minCommunitySize === 4)
  }

  // ---- maximalConnected over the per-graph peel index ---------------------

  /** The index's components as (label, node ids, edge pairs). */
  private def indexed(g: AttributedGraph, model: CohesionModel): Set[(Long, Set[Long], Set[(Long, Long)])] =
    g.peelIndex(model).components.collect().map { case (l, c) =>
      (l, c.ids.toSet, c.ids.indices.flatMap(i => c.nodes(i).dst.map((c.ids(i), _))).toSet)
    }.toSet

  test("peelIndex: components equal the peeled graph's, labelled by their least id") {
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      (1 to 2).foreach { s =>
        // Three random blocks with no edge between them, so the peeled graph
        // has several components.
        val blocks = (0 until 3).map(b => TestGraphs.randomLocal(14, 0.4, seed = 700 + 3 * s + b))
        val lg = TestGraphs.local(42, blocks.zipWithIndex.flatMap { case (b, i) =>
          (0 until b.n).flatMap(u => b.adj(u).filter(_ > u).map(v => (14 * i + u, 14 * i + v)))
        })
        // The peeled graph, by the local brute-force peels.
        val peeled = model match {
          case CoreModel(k) =>
            val core = TestGraphs.bruteCoreness(lg)
            (0 until lg.n).flatMap(u => lg.adj(u).filter(v => u < v && core(u) >= k && core(v) >= k).map((u, _)))
          case TrussModel(k) => TestGraphs.bruteTrussEdges(lg, k).toSeq
        }
        val plg = TestGraphs.local(lg.n, peeled)
        val expected = (0 until plg.n).filter(plg.adj(_).nonEmpty)
          .map(v => FromScratch.componentOf(plg, v, plg.allAlive).map(_.toLong).toSet).toSet
          .map { (c: Set[Long]) =>
            (c.min, c, peeled.map { case (a, b) => (a.toLong, b.toLong) }
              .filter(e => c(e._1)).flatMap(e => Seq(e, e.swap)).toSet)
          }
        assert(expected.size > 1, s"$model seed=$s")
        assert(indexed(TestGraphs.toAttributed(spark, lg), model) === expected, s"$model seed=$s")
      }
    }
  }

  test("peelIndex: a 40-node path is labelled in 9 rounds") {
    // Position i of the path holds node 13i mod 40, so ids do not follow the
    // path; min-label propagation would take 40 rounds here.
    val lg = TestGraphs.local(40, (0 until 39).map(i => (13 * i % 40, 13 * (i + 1) % 40)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(g.peelIndex(CoreModel(1)).rounds === 9)
    assert(indexed(g, CoreModel(1)).map(c => (c._1, c._2)) === Set((0L, (0L until 40L).toSet)))
  }

  test("peelIndex: the build runs the peel's jobs, one count, one per round and one build") {
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      val g = TestGraphs.toAttributed(spark, TestGraphs.randomLocal(30, 0.3, seed = 801))
      g.numStats
      val peel = jobsIn(s"peel-$model")(model.peelEdges(g.edges))._2
      val (index, jobs) = jobsIn(s"index-$model")(PeelIndex.build(g, model))
      assert(index.rounds > 1, model)
      assert(jobs === peel + 1 + index.rounds + 1, model)
    }
  }

  test("maximalConnected: on a warm cache equals a fresh peel and BFS, for every q") {
    var outcomes = Set.empty[Boolean] // whether q's structure was empty
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      val lg = TestGraphs.randomLocal(16, 0.35, seed = 501)
      val g = TestGraphs.toAttributed(spark, lg)
      model.maximalConnected(g, lg.ids(0))
      // Sized from its data, not from the 64 shuffle partitions of the suite.
      assert(g.peelIndex(model).components.getNumPartitions === 1, model)
      val fresh = AttributedGraph.adjacency(model.peelEdges(g.edges))
      lg.ids.foreach { q =>
        val got = model.maximalConnected(g, q)
        assert(sameGraph(got, FromScratch.componentOf(g, fresh, q)), s"$model q=$q")
        outcomes += got.n == 0
      }
    }
    assert(outcomes === Set(true, false))
  }

  test("peelIndex: one entry per model, and a repeat call returns it") {
    val g = TestGraphs.toAttributed(spark, k4plusTail)
    val models = Seq(CoreModel(3), CoreModel(4), TrussModel(3))
    val entries = models.map(g.peelIndex)
    assert(entries.distinct.size === 3)
    models.zip(entries).foreach { case (m, e) => assert(g.peelIndex(m) eq e, m) }
    assert(g.peelIndex(new CoreModel(3)) eq entries.head)
    val k4 = for (a <- 0L until 4L; b <- 0L until 4L if a != b) yield (a, b)
    val k4Component = Set((0L, (0L until 4L).toSet, k4.toSet))
    assert(models.map(indexed(g, _)) === Seq(k4Component, Set.empty, k4Component))
  }

  test("maximalConnected: a warm call runs exactly one Spark job") {
    Seq(CoreModel(3), TrussModel(3)).foreach { model =>
      val lg = TestGraphs.randomLocal(30, 0.2, seed = 601)
      val g = TestGraphs.toAttributed(spark, lg)
      val inside = model.maximal(lg, lg.allAlive, FromScratch.componentOf(lg, 0, lg.allAlive).maxBy(lg.adj(_).length))
      assert(inside.size > 1, model)
      model.maximalConnected(g, lg.ids(inside.head))
      val (warmLg, warm) = jobsIn(s"warm-$model")(model.maximalConnected(g, lg.ids(inside.last)))
      assert(warmLg.ids.toSet === inside.map(lg.ids).toSet, model)
      assert(warm === 1, model)
    }
  }

  test("maximalConnected on a warm cache: an absent q throws, naming it; a q outside is empty") {
    val g = TestGraphs.toAttributed(spark, k4plusTail)
    Seq(CoreModel(3), TrussModel(3)).foreach { model =>
      assert(model.maximalConnected(g, 0L).ids.toSet === Set(0L, 1L, 2L, 3L), model)
      val e = intercept[IllegalArgumentException](model.maximalConnected(g, 99L))
      assert(e.getMessage.contains("99"), model)
      assert(model.maximalConnected(g, 5L).n === 0, model)
    }
  }

  test("models reject degenerate k") {
    assertThrows[IllegalArgumentException](new CoreModel(0))
    assertThrows[IllegalArgumentException](new TrussModel(1))
  }
}
