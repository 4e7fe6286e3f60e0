package repro.graph

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.core.AttrDistance

/** Attribute-prioritized BFS (§V-A): starting from `q`, expand layer by
  * layer until at least `minSize` nodes are discovered; the final layer is
  * trimmed to the nodes with the smallest composite distance `f(·,q)`, which
  * realizes the paper's "preferentially expand from nodes having smaller
  * composite attribute distances" at layer granularity (whole-frontier
  * rounds instead of one-node-at-a-time expansion).
  *
  * `|G_q|` is Hoeffding-bounded (Theorem 10), so the visited set lives on
  * the driver and each layer costs one filter job over the symmetric edges,
  * with the frontier shipped to the tasks as a set. With no size bound the
  * same walk collects q's maximal connected k-core or k-truss (§IV-A, §VI-C)
  * on the driver, over the component a [[PeelIndex]] fetched.
  */
object PriorityBfs {

  /** The neighborhood `G_q` as a driver-side [[LocalGraph]]: its nodes with
    * attributes normalized by the whole graph's stats, and every edge of `G`
    * between two of them. Nodes are ordered layer by layer, by id within a
    * layer, so `q` has index 0. If fewer than `minSize` nodes are reachable
    * from `q`, all reachable nodes are returned.
    *
    * Spark jobs: one per expanded layer, one attribute fetch, and one fetch
    * of the edges inside the last, unexpanded layer.
    */
  def collectGq(g: AttributedGraph, q: Long, minSize: Long, gamma: Double): LocalGraph =
    walk(g, p => g.adjacencyRdd.filter(p).collect(),
      ids => g.nodes.filter(col("id").isin(ids: _*)).collect(), q, minSize, gamma)

  /** The BFS behind [[collectGq]] and [[CohesionModel.maximalConnected]].
    * `edgesWhere(p)` returns the walked graph's symmetric edges that satisfy
    * `p`, always in one fixed order; `rowsOf(ids)` returns the `nodes` rows
    * of at least those ids that are in `g`. With `minSize = Long.MaxValue`
    * the walk collects q's whole connected component; γ only ranks an
    * overshooting layer, and such a walk never overshoots.
    */
  private[graph] def walk(g: AttributedGraph, edgesWhere: (((Long, Long)) => Boolean) => Array[(Long, Long)],
                          rowsOf: Seq[Long] => Array[Row], q: Long, minSize: Long, gamma: Double): LocalGraph = {
    val visited = mutable.LinkedHashSet(q)
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    var layer: Seq[Long] = Seq(q) // newest layer, not yet expanded
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

    val rows = rowsOf((visited ++ overshoot).toSeq).map(g.localNode).map(v => v._1 -> v).toMap
    require(rows.contains(q), s"query node $q not in graph")
    if (overshoot.nonEmpty) {
      // Overshooting layer: keep only the lowest-f portion that fills G_q.
      val (_, qText, qNum) = rows(q)
      def f(v: Long): Double = {
        val (_, t, nm) = rows(v)
        AttrDistance.composite(t, nm, qText, qNum, gamma)
      }
      layer = overshoot.sortBy(v => (f(v), v)).take((minSize - visited.size).toInt)
      visited ++= layer
    }
    // Expanding a layer revealed its edges to earlier layers and to the next
    // one, never those inside the last layer that stayed unexpanded.
    if (layer.size > 1) {
      val last = layer.toSet
      edges ++= edgesWhere(e => last(e._1) && last(e._2))
    }
    LocalGraph.build(visited.toSeq.map(rows), edges.toSeq)
  }
}
