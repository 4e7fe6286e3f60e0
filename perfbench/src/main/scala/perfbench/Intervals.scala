package perfbench

/** Arithmetic on half-open time intervals `[start, end)` in milliseconds.
  *
  * Spark jobs nest (adaptive query execution submits jobs while another job
  * of the same query is running), so busy time is the length of the union of
  * job intervals, never the sum of their lengths.
  */
object Intervals {

  final case class Span(start: Double, end: Double) {
    require(end >= start, s"interval ends before it starts: [$start, $end)")
    def length: Double = end - start
  }

  /** Disjoint, sorted intervals covering exactly the union of `xs`. */
  def union(xs: Seq[Span]): Seq[Span] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Span]
    xs.sortBy(_.start).foreach { s =>
      if (out.nonEmpty && s.start <= out.last.end)
        out(out.length - 1) = Span(out.last.start, math.max(out.last.end, s.end))
      else out += s
    }
    out.toSeq
  }

  /** Length of the union of `xs`. */
  def unionLength(xs: Seq[Span]): Double = union(xs).map(_.length).sum

  /** Length of the union of `xs` that lies inside `window`. */
  def coveredWithin(xs: Seq[Span], window: Span): Double =
    unionLength(xs.flatMap(clip(_, window)))

  /** The part of `s` inside `window`, if any. */
  private def clip(s: Span, window: Span): Option[Span] = {
    val a = math.max(s.start, window.start)
    val b = math.min(s.end, window.end)
    if (b > a) Some(Span(a, b)) else None
  }
}
