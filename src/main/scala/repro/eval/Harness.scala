package repro.eval

import scala.util.Random
import repro.graph.{AttributedGraph, LocalGraph}

/** Shared evaluation plumbing: query generation (the paper draws random
  * query nodes, §VII-A) and timing helpers.
  */
object Harness {

  def timeMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Random query nodes that actually live in some connected k-core — the
    * paper's random queries are implicitly answerable; drawing coreness-≥k
    * nodes keeps every method comparable on the same workload.
    */
  def pickQueries(lg: LocalGraph, k: Int, count: Int, seed: Long): Seq[Long] = {
    val core = lg.coreness()
    val eligible = (0 until lg.n).filter(i => core(i) >= k).map(lg.ids)
    val rnd = new Random(seed)
    rnd.shuffle(eligible.toList).take(count)
  }

  /** Collect the whole (small) graph into a LocalGraph with normalized
    * numerical attributes — the driver-side mirror benches score against.
    */
  def collectWhole(g: AttributedGraph): LocalGraph =
    LocalGraph.build(g.nodes.collect().map(g.localNode).toSeq,
      g.edges.collect().map(AttributedGraph.edgePair).toSeq)
}
