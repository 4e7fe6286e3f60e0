package repro.core

/** The inverse standard-normal CDF, by Acklam's rational approximation
  * (|relative error| < 1.15e-9): the test oracle for [[Blb.Z]].
  */
object NormalQuantile {

  def zQuantile(p: Double): Double = {
    require(p > 0 && p < 1, s"p must be in (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  /** Two-sided normal critical value `z_{α/2}` for confidence level `1−α`. */
  def zCritical(alpha: Double): Double = zQuantile(1 - alpha / 2)
}
