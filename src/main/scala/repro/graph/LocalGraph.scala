package repro.graph

import scala.collection.mutable
import repro.core.AttrDistance

/** A collected, driver-side view of a (small) subgraph.
  *
  * The paper's enumeration and greedy refinement operate on the maximal
  * connected k-core/k-truss around `q`, which is small by construction; we
  * collect exactly that subgraph from the distributed stages and run the
  * search-tree / greedy logic on this compact adjacency structure.
  *
  * Node indices are `0 until n`; `ids(i)` maps back to the graph's node id.
  * `text`/`num` hold the (already normalized) attributes used for pairwise
  * distances. `adj(i)` lists i's neighbours once each, in ascending local
  * index, whatever order the edges came in.
  */
final class LocalGraph(
    val ids: Array[Long],
    edgePairs: Array[(Int, Int)],
    val text: Array[Set[String]],
    val num: Array[Array[Double]],
) {
  val n: Int = ids.length

  val adj: Array[Array[Int]] = {
    val b = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    edgePairs.foreach { case (u, v) =>
      if (u != v) { b(u) += v; b(v) += u }
    }
    b.map(_.toArray.sorted.distinct)
  }

  val indexOf: Map[Long, Int] = ids.zipWithIndex.toMap

  def edgeCount: Long = adj.map(_.length.toLong).sum / 2

  def degreeWithin(i: Int, alive: mutable.BitSet): Int = {
    var d = 0; var j = 0
    val a = adj(i)
    while (j < a.length) { if (alive(a(j))) d += 1; j += 1 }
    d
  }

  /** Pairwise composite attribute distance between two local nodes. */
  def pairDistance(i: Int, j: Int, gamma: Double): Double =
    AttrDistance.composite(text(i), num(i), text(j), num(j), gamma)

  /** `f(·,q)`: the composite distance of every local node to node `q`. */
  def distancesTo(q: Int, gamma: Double): Array[Double] =
    Array.tabulate(n)(pairDistance(_, q, gamma))

  def allAlive: mutable.BitSet = mutable.BitSet(0 until n: _*)

  /** The local indices of the given node ids. */
  def localSet(ids: Set[Long]): mutable.BitSet =
    mutable.BitSet.fromSpecific(ids.iterator.map(indexOf))

  /** Coreness of every node: the largest k whose k-core, by
    * [[CoreModel]]'s own cascade with no query node, holds it; 0 for a node
    * with no edge.
    */
  def coreness(): Array[Int] = {
    val core = new Array[Int](n)
    Iterator.from(1).map(k => (k, CoreModel(k).peelAll(this, n).alive)).takeWhile(_._2.nonEmpty)
      .foreach { case (k, structure) => structure.foreach(core(_) = k) }
    core
  }
}

object LocalGraph {

  /** Build from id-keyed rows; edges referencing unknown ids are dropped. */
  def build(
      nodeRows: Seq[(Long, Set[String], Array[Double])],
      edgeRows: Seq[(Long, Long)],
  ): LocalGraph = {
    val ids = nodeRows.map(_._1).toArray
    val idx = ids.zipWithIndex.toMap
    val pairs = edgeRows.collect {
      case (a, b) if idx.contains(a) && idx.contains(b) => (idx(a), idx(b))
    }.toArray
    new LocalGraph(ids, pairs, nodeRows.map(_._2).toArray, nodeRows.map(_._3).toArray)
  }
}
