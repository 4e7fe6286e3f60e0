package repro.graph

import org.apache.spark.rdd.RDD
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
  * the driver and each layer costs one lookup job in G's [[NodeStore]] that
  * runs only on the partitions holding the frontier. With no size bound the
  * same walk collects q's maximal connected k-core or k-truss (§IV-A, §VI-C)
  * on the driver, over the component a [[PeelIndex]] fetched.
  */
object PriorityBfs {

  /** A node as the walk reads it: `A^t(v)` as stored, `Z(A^#(v))`
    * normalized by the whole graph's stats, and its neighbours `dst`.
    */
  final case class Node(text: Array[String], num: Array[Double], dst: Array[Long])

  /** G's adjacency keyed by node ([[AttributedGraph.nodeStore]]): one cached
    * record per node of `G`, its [[Node]] over [[AttributedGraph.adjacency]]
    * of all of G's edges, hash-partitioned by id. It is G's adjacency
    * layout, not a structural index: it holds nothing that depends on `q`,
    * `k` or the cohesion model. `buildMs` is the time its build took.
    */
  final class NodeStore private (val nodes: RDD[(Long, Node)], val buildMs: Double) {
    private val part = nodes.partitioner.get

    /** The records of those `ids` that are in `G`. One Spark job, with one
      * task per partition that holds one of `ids`.
      */
    def fetch(ids: Seq[Long]): Array[(Long, Node)] = {
      val want = ids.toSet
      val parts = want.iterator.map(part.getPartition).toSeq.distinct.sorted
      nodes.sparkContext.runJob(nodes,
        (it: Iterator[(Long, Node)]) => it.filter(v => want(v._1)).toArray, parts).flatten
    }
  }

  object NodeStore {

    /** One partition per `pairsPerPartition` adjacency pairs, at least one,
      * as the [[PeelIndex]] is sized ([[AttributedGraph.nodeRecords]]).
      * Spark jobs, once `g.numStats` is known: one that counts the pairs and
      * one that builds the records.
      */
    private[graph] def build(g: AttributedGraph,
                             pairsPerPartition: Long = AttributedGraph.PairsPerPartition): NodeStore = {
      val t0 = System.nanoTime()
      val nodes = AttributedGraph.nodeRecords(g, g.edges, pairsPerPartition)
      nodes.localCheckpoint()
      nodes.count()
      new NodeStore(nodes, (System.nanoTime() - t0) / 1e6)
    }
  }

  /** The neighborhood `G_q` as a driver-side [[LocalGraph]]: its nodes with
    * attributes normalized by the whole graph's stats, and every edge of `G`
    * between two of them. Nodes are ordered layer by layer, by id within a
    * layer, so `q` has index 0. If fewer than `minSize` nodes are reachable
    * from `q`, all reachable nodes are returned.
    *
    * Spark jobs: one lookup per expanded layer, which also returns the
    * layer's rows, and one for the rows and inner edges of the last layer
    * when the size bound stops the walk; none to plan, and none to build
    * the store after its first use on `g`.
    */
  def collectGq(g: AttributedGraph, q: Long, minSize: Long, gamma: Double): LocalGraph =
    walk(g.nodeStore.fetch, q, minSize, gamma)

  /** The BFS behind [[collectGq]] and [[CohesionModel.maximalConnected]].
    * `fetch(ids)` returns the [[Node]] of each of `ids` that is in the walked
    * graph; the walk calls it once per expanded layer and once for the last
    * layer when it stops by size, and never twice for one node. With
    * `minSize = Long.MaxValue` the walk collects q's whole connected
    * component; γ only ranks an overshooting layer, and such a walk never
    * overshoots. Throws `IllegalArgumentException` when `q` is not in the
    * walked graph.
    */
  private[graph] def walk(fetch: Seq[Long] => Iterable[(Long, Node)],
                          q: Long, minSize: Long, gamma: Double): LocalGraph = {
    val fetched = mutable.Map.empty[Long, Node]
    // The out-pairs of `layer` whose other end passes `keep`.
    def pairsOf(layer: Seq[Long], keep: Long => Boolean): Array[(Long, Long)] =
      layer.iterator.flatMap(v => fetched.get(v).iterator.flatMap(_.dst.iterator.filter(keep).map((v, _))))
        .toArray

    val visited = mutable.LinkedHashSet(q)
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    var layer: Seq[Long] = Seq(q) // newest layer, not yet expanded
    var overshoot: Seq[Long] = Nil
    while (visited.size < minSize && layer.nonEmpty && overshoot.isEmpty) {
      fetched ++= fetch(layer)
      val out = pairsOf(layer, _ => true)
      edges ++= out
      val next = out.iterator.map(_._2).filterNot(visited).toSeq.distinct.sorted
      if (visited.size + next.size <= minSize) {
        visited ++= next
        layer = next
      } else overshoot = next
    }
    // The overshooting or unexpanded last layer is not fetched yet.
    val last = if (overshoot.nonEmpty) overshoot else layer
    if (last.nonEmpty) fetched ++= fetch(last)
    require(fetched.contains(q), s"query node $q not in graph")

    val rows = fetched.map { case (v, n) => v -> (v, n.text.toSet, n.num) }
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
      val inLast = layer.toSet
      edges ++= pairsOf(layer, inLast)
    }
    LocalGraph.build(visited.toSeq.map(rows), edges.toSeq)
  }
}
