package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.functions.col
import scala.collection.mutable
import repro.core.AttrDistance

/** From-scratch maximal connected structures: each call clones `alive`,
  * recomputes every degree or support and re-runs the component search.
  * Test oracles for the incremental [[Peel]]s, for the [[PeelIndex]] fetch
  * and for the [[PriorityBfs.NodeStore]] fetches.
  */
object FromScratch {

  /** `G_q` by the BFS on Spark that [[PriorityBfs.collectGq]] replaced, over
    * `adjacency` (both orientations of a subset of `g`'s edges, see
    * [[AttributedGraph.adjacency]]): one filter job per expanded layer, one
    * Catalyst `isin` row fetch, and one filter for the edges inside the
    * unexpanded last layer; `collectGq` costs one job on a store of one
    * partition. Attributes come from `g`, normalized by the
    * whole graph's stats; throws when `q` is not in `g`.
    */
  def walk(g: AttributedGraph, adjacency: RDD[(Long, Long)], q: Long, minSize: Long, gamma: Double): LocalGraph = {
    def edgesWhere(p: ((Long, Long)) => Boolean): Array[(Long, Long)] = adjacency.filter(p).collect()
    val visited = mutable.LinkedHashSet(q)
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    var layer: Seq[Long] = Seq(q)
    var overshoot: Seq[Long] = Nil
    while (visited.size < minSize && layer.nonEmpty && overshoot.isEmpty) {
      val frontier = layer.toSet
      val out = edgesWhere(e => frontier(e._1))
      edges ++= out
      val next = out.iterator.map(_._2).filterNot(visited).toSeq.distinct.sorted
      if (visited.size + next.size <= minSize) {
        visited ++= next
        layer = next
      } else overshoot = next
    }
    val ids = (visited ++ overshoot).toSeq
    val rows = g.nodes.filter(col("id").isin(ids: _*)).collect().map(g.localNode).map(v => v._1 -> v).toMap
    require(rows.contains(q), s"query node $q not in graph")
    if (overshoot.nonEmpty) {
      val (_, qText, qNum) = rows(q)
      def f(v: Long): Double = {
        val (_, t, nm) = rows(v)
        AttrDistance.composite(t, nm, qText, qNum, gamma)
      }
      layer = overshoot.sortBy(v => (f(v), v)).take((minSize - visited.size).toInt)
      visited ++= layer
    }
    if (layer.size > 1) {
      val last = layer.toSet
      edges ++= edgesWhere(e => last(e._1) && last(e._2))
    }
    LocalGraph.build(visited.toSeq.map(rows), edges.toSeq)
  }

  /** `G_q` over all of `g`'s edges: the oracle for [[PriorityBfs.collectGq]]. */
  def collectGq(g: AttributedGraph, q: Long, minSize: Long, gamma: Double): LocalGraph =
    walk(g, AttributedGraph.adjacency(g.edges), q, minSize, gamma)

  /** `q`'s connected component over `adjacency`, holding only those edges:
    * [[walk]] with no size bound. Empty when `q` has no edge in `adjacency`;
    * throws when `q` is not in `g`.
    */
  def componentOf(g: AttributedGraph, adjacency: RDD[(Long, Long)], q: Long): LocalGraph = {
    val lg = walk(g, adjacency, q, Long.MaxValue, gamma = 0.0)
    if (lg.n == 1) LocalGraph.build(Nil, Nil) else lg
  }

  /** Connected component of `q` within `alive` (BFS); empty when `q` is not
    * alive.
    */
  def componentOf(g: LocalGraph, q: Int, alive: mutable.BitSet): mutable.BitSet = {
    val seen = mutable.BitSet.empty
    if (!alive(q)) return seen
    val queue = mutable.Queue(q)
    seen += q
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      g.adj(u).foreach(v => if (alive(v) && !seen(v)) { seen += v; queue += v })
    }
    seen
  }

  /** q's connected k-core within `alive`: peel degree < k, take q's component. */
  def core(g: LocalGraph, alive: mutable.BitSet, q: Int, k: Int): mutable.BitSet = {
    if (!alive(q)) return mutable.BitSet.empty
    val cur = alive.clone()
    val deg = new Array[Int](g.n)
    cur.foreach(i => deg(i) = g.degreeWithin(i, cur))
    val queue = mutable.Queue.empty[Int]
    cur.foreach(i => if (deg(i) < k) queue += i)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      if (cur(u)) {
        cur -= u
        g.adj(u).foreach { v =>
          if (cur(v)) {
            deg(v) -= 1
            if (deg(v) < k) queue += v
          }
        }
      }
    }
    if (!cur(q)) mutable.BitSet.empty else componentOf(g, q, cur)
  }

  /** q's connected k-truss within `alive`: recompute every edge support to a
    * fixpoint, take q's component over the surviving edges; empty when q
    * keeps no edge or the component has fewer than k nodes.
    */
  def truss(g: LocalGraph, alive: mutable.BitSet, q: Int, k: Int): mutable.BitSet = {
    if (!alive(q)) return mutable.BitSet.empty
    val nbr = Array.fill(g.n)(mutable.Set.empty[Int])
    alive.foreach { u =>
      g.adj(u).foreach(v => if (alive(v) && v > u) { nbr(u) += v; nbr(v) += u })
    }
    var changed = true
    while (changed) {
      changed = false
      val toDrop = mutable.ArrayBuffer.empty[(Int, Int)]
      alive.foreach { u =>
        nbr(u).foreach { v =>
          if (v > u) {
            val support = nbr(u).count(w => nbr(v).contains(w))
            if (support < k - 2) toDrop += ((u, v))
          }
        }
      }
      if (toDrop.nonEmpty) {
        changed = true
        toDrop.foreach { case (u, v) => nbr(u) -= v; nbr(v) -= u }
      }
    }
    if (nbr(q).isEmpty) return mutable.BitSet.empty
    val seen = mutable.BitSet(q)
    val queue = mutable.Queue(q)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      nbr(u).foreach(v => if (!seen(v)) { seen += v; queue += v })
    }
    if (seen.size < k) mutable.BitSet.empty else seen
  }

  /** The oracle for `model`'s structure. */
  def of(model: CohesionModel): (LocalGraph, mutable.BitSet, Int) => mutable.BitSet = model match {
    case CoreModel(k)  => core(_, _, _, k)
    case TrussModel(k) => truss(_, _, _, k)
  }
}
