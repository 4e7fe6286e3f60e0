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

  /** Each node's kept neighbours in the index's store. */
  private def indexed(index: PeelIndex): Map[Long, Set[Long]] =
    index.store.nodes.collect().flatMap(_.iterator.map { case (v, n) => v -> n.dst.toSet }).toMap

  /** G's own node store, and one forced to a partition per 10 adjacency pairs. */
  private def stores(g: AttributedGraph): Seq[PriorityBfs.NodeStore] =
    Seq(g.nodeStore, PriorityBfs.NodeStore.build(g, pairsPerPartition = 10))

  /** The edges of `lg` that survive `model`'s peel, by the local brute-force
    * peels, as id pairs.
    */
  private def brutePeel(lg: LocalGraph, model: CohesionModel): Seq[(Long, Long)] = (model match {
    case CoreModel(k) =>
      val core = TestGraphs.bruteCoreness(lg)
      (0 until lg.n).flatMap(u => lg.adj(u).filter(v => u < v && core(u) >= k && core(v) >= k).map((u, _)))
    case TrussModel(k) => TestGraphs.bruteTrussEdges(lg, k).toSeq
  }).map { case (u, v) => (lg.ids(u), lg.ids(v)) }

  /** Each of the nodes `0 until n`'s neighbours over `peeled`, as [[indexed]]
    * lists them.
    */
  private def keptOver(n: Int, peeled: Seq[(Long, Long)]): Map[Long, Set[Long]] = {
    val nbrs = peeled.flatMap(e => Seq(e, e.swap)).groupMap(_._1)(_._2)
    (0L until n).map(v => v -> nbrs.getOrElse(v, Nil).toSet).toMap
  }

  test("peelIndex: each node keeps the peeled graph's edges") {
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      (1 to 2).foreach { s =>
        // Three random blocks with no edge between them, so the peeled graph
        // has several components.
        val blocks = (0 until 3).map(b => TestGraphs.randomLocal(14, 0.4, seed = 700 + 3 * s + b))
        val lg = TestGraphs.local(42, blocks.zipWithIndex.flatMap { case (b, i) =>
          (0 until b.n).flatMap(u => b.adj(u).filter(_ > u).map(v => (14 * i + u, 14 * i + v)))
        })
        val expected = keptOver(lg.n, brutePeel(lg, model))
        // Several blocks, so several components, keep an edge.
        assert((0 until 3).count(b => (14 * b until 14 * b + 14).exists(v => expected(v.toLong).nonEmpty)) > 1,
          s"$model seed=$s")
        val g = TestGraphs.toAttributed(spark, lg)
        stores(g).foreach { store =>
          val at = s"$model seed=$s partitions=${store.nodes.getNumPartitions}"
          assert(indexed(PeelIndex.build(store, model)) === expected, at)
        }
      }
    }
  }

  test("peelIndex on a store of several partitions equals the DataFrame oracle") {
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      (1 to 3).foreach { s =>
        val lg = TestGraphs.randomLocal(30, 0.3, seed = 900 + s)
        val g = TestGraphs.toAttributed(spark, lg)
        val store = PriorityBfs.NodeStore.build(g, pairsPerPartition = 10)
        assert(store.nodes.getNumPartitions > 3, s"$model seed=$s")
        val expected = keptOver(lg.n,
          FromScratch.peelEdges(model, g.edges).collect().map(AttributedGraph.edgePair).toSeq)
        assert(expected.values.exists(_.nonEmpty), s"$model seed=$s")
        assert(indexed(PeelIndex.build(store, model)) === expected, s"$model seed=$s")
      }
    }
  }

  test("peelIndex: a graph with no edges has no components") {
    val g = TestGraphs.toAttributed(spark, TestGraphs.local(5, Nil))
    Seq(CoreModel(1), TrussModel(2)).foreach { model =>
      stores(g).foreach(store => assert(indexed(PeelIndex.build(store, model)) === keptOver(5, Nil), model))
      assert(model.maximalConnected(g, 0L).n === 0, model)
    }
  }

  test("peelIndex: k above k_max leaves no component, and maximalConnected is empty") {
    val g = TestGraphs.toAttributed(spark, k4plusTail) // k_max = 3; a 4-truss at most
    Seq(CoreModel(4), TrussModel(5)).foreach { model =>
      stores(g).foreach { store =>
        val index = PeelIndex.build(store, model)
        assert(indexed(index) === keptOver(6, Nil), model)
        assert(index.structureOf(0L).n === 0, model)
      }
      assert(model.maximalConnected(g, 0L).n === 0, model)
    }
  }

  test("peelIndex: a truss whose triangles span three partitions") {
    // K5 on 0..4 and a strip of triangles 4-5-6, 5-6-7 hanging off node 4:
    // the strip's edges lie in at most two triangles, and their peel cascades
    // across the partitions {0,3,6}, {1,4,7} and {2,5}.
    val lg = TestGraphs.local(8, (for (a <- 0 until 5; b <- a + 1 until 5) yield (a, b)) ++
      Seq((4, 5), (4, 6), (5, 6), (5, 7), (6, 7)))
    val g = TestGraphs.toAttributed(spark, lg)
    val k5 = keptOver(8, for (a <- 0L until 5L; b <- a + 1 until 5L) yield (a, b))
    val Seq(one, several) = stores(g)
    assert(several.nodes.getNumPartitions === 3)
    assert(Set(0L, 1L, 2L).map(several.nodes.partitioner.get.getPartition) === Set(0, 1, 2))
    Seq(one, several).foreach { store =>
      assert(indexed(PeelIndex.build(store, TrussModel(4))) === k5)
    }
    assert(TrussModel(4).maximalConnected(g, 6L).n === 0)
    assert(TrussModel(4).maximalConnected(g, 2L).ids.toSet === (0L until 5L).toSet)
  }

  test("peelIndex: a 40-node path whose ids do not follow it is one component") {
    // Position i of the path holds node 13i mod 40, so every edge crosses
    // partitions on the forced store, and the peel and the walk from node 13
    // span 39 hops.
    val path = (0 until 39).map(i => (13 * i % 40, 13 * (i + 1) % 40))
    val g = TestGraphs.toAttributed(spark, TestGraphs.local(40, path))
    val kept = keptOver(40, path.map { case (a, b) => (a.toLong, b.toLong) })
    stores(g).foreach { store =>
      val index = PeelIndex.build(store, CoreModel(1))
      assert(indexed(index) === kept)
      assert(index.structureOf(13L).ids.toSet === (0L until 40L).toSet)
    }
  }

  test("peelIndex: one build job on one partition, exchanges + 1 on several") {
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      val g = TestGraphs.toAttributed(spark, TestGraphs.randomLocal(30, 0.3, seed = 801))
      val Seq(one, several) = stores(g)
      assert(one.nodes.getNumPartitions === 1, model)
      val (onOne, jobsOnOne) = jobsIn(s"index-one-$model")(PeelIndex.build(one, model))
      assert(onOne.exchanges === 0, model)
      assert(jobsOnOne === 1, model)
      assert(several.nodes.getNumPartitions > 1, model)
      val (onSeveral, jobsOnSeveral) = jobsIn(s"index-several-$model")(PeelIndex.build(several, model))
      assert(onSeveral.exchanges >= 1, model) // at least one round of peeled edges
      assert(jobsOnSeveral === onSeveral.exchanges + 1, model)
    }
  }

  test("maximalConnected: on a warm cache equals a fresh peel and BFS, for every q") {
    var outcomes = Set.empty[Boolean] // whether q's structure was empty
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      val lg = TestGraphs.randomLocal(16, 0.35, seed = 501)
      val g = TestGraphs.toAttributed(spark, lg)
      model.maximalConnected(g, lg.ids(0))
      // Sized from its data, not from the 64 shuffle partitions of the suite.
      assert(g.peelIndex(model).store.nodes.getNumPartitions === 1, model)
      val fresh = AttributedGraph.adjacency(FromScratch.peelEdges(model, g.edges))
      lg.ids.foreach { q =>
        val got = model.maximalConnected(g, q)
        assert(sameGraph(got, FromScratch.componentOf(g, fresh, q)), s"$model q=$q")
        outcomes += got.n == 0
      }
    }
    assert(outcomes === Set(true, false))
  }

  test("maximalConnected on a store of several partitions: the walk equals a fresh peel and BFS, for every q") {
    // BFS depth of a walked graph from q, its node 0.
    def depth(lg: LocalGraph): Int = {
      val dist = Array.fill(lg.n)(-1)
      dist(0) = 0
      val queue = mutable.Queue(0)
      while (queue.nonEmpty) {
        val u = queue.dequeue()
        lg.adj(u).foreach(w => if (dist(w) < 0) { dist(w) = dist(u) + 1; queue += w })
      }
      dist.max
    }
    // The scrambled 40-node path of the index test above; under CoreModel(1)
    // the walk from its end 0 is 39 layers deep.
    val path = TestGraphs.local(40, (0 until 39).map(i => (13 * i % 40, 13 * (i + 1) % 40)))
    val cases = (1 to 2).map(s => (TestGraphs.randomLocal(30, 0.3, seed = 1000 + s), Seq(CoreModel(3), TrussModel(4)))) :+
      ((path, Seq(CoreModel(3), TrussModel(4), CoreModel(1))))
    var outcomes = Set.empty[Boolean] // whether q's structure was empty
    cases.zipWithIndex.foreach { case ((lg, models), c) =>
      val g = TestGraphs.toAttributed(spark, lg)
      val store = PriorityBfs.NodeStore.build(g, pairsPerPartition = 10)
      assert(store.nodes.getNumPartitions > 3)
      models.foreach { model =>
        val index = PeelIndex.build(store, model)
        val fresh = spark.sparkContext.parallelize(brutePeel(lg, model).flatMap(e => Seq(e, e.swap)), 1)
        val qs = if (model == CoreModel(1)) Seq(0L) else lg.ids.toSeq
        qs.foreach { q =>
          val (got, jobs) = jobsIn(s"several-$c-$model-$q")(index.structureOf(q))
          val expected = FromScratch.componentOf(g, fresh, q)
          assert(sameGraph(got, expected), s"$model q=$q")
          if (expected.n == 0) assert(got.n === 0, s"$model q=$q")
          else assert(jobs <= depth(got) + 2, s"$model q=$q")
          outcomes += got.n == 0
        }
        val (e, jobs) = jobsIn(s"several-absent-$c-$model")(intercept[IllegalArgumentException](index.structureOf(99L)))
        assert(e.getMessage.contains("99"), model)
        assert(jobs === 1, model)
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
    val k4 = keptOver(6, for (a <- 0L until 4L; b <- a + 1 until 4L) yield (a, b))
    assert(models.map(m => indexed(g.peelIndex(m))) === Seq(k4, keptOver(6, Nil), k4))
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
      val (e, jobs) = jobsIn(s"absent-$model")(intercept[IllegalArgumentException](model.maximalConnected(g, 99L)))
      assert(e.getMessage.contains("99"), model)
      assert(jobs === 1, model)
      assert(model.maximalConnected(g, 5L).n === 0, model)
    }
  }

  test("models reject degenerate k") {
    assertThrows[IllegalArgumentException](new CoreModel(0))
    assertThrows[IllegalArgumentException](new TrussModel(1))
  }
}
