package perfbench

import org.scalatest.funsuite.AnyFunSuite
import perfbench.Intervals._

class IntervalsSpec extends AnyFunSuite {

  test("union merges overlapping and nested intervals and keeps gaps") {
    val xs = Seq(Span(5, 7), Span(0, 2), Span(1, 3), Span(10, 20), Span(12, 15))
    assert(union(xs) == Seq(Span(0, 3), Span(5, 7), Span(10, 20)))
    assert(unionLength(xs) == 3 + 2 + 10)
  }

  test("nested jobs count once, unlike a sum of their lengths") {
    // An outer job with two jobs submitted while it runs.
    val jobs = Seq(Span(0, 100), Span(10, 40), Span(30, 90))
    assert(jobs.map(_.length).sum == 190)
    assert(unionLength(jobs) == 100)
  }

  test("touching intervals merge; empty input has length 0") {
    assert(union(Seq(Span(0, 1), Span(1, 2))) == Seq(Span(0, 2)))
    assert(unionLength(Nil) == 0)
  }

  test("coveredWithin counts only the part inside the window") {
    val jobs = Seq(Span(0, 10), Span(8, 30), Span(40, 50))
    assert(coveredWithin(jobs, Span(5, 45)) == 25 + 5)
    assert(coveredWithin(jobs, Span(31, 39)) == 0)
  }
}
